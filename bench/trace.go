package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder. Spans are taken from bench's own files, around calls
// into each layer's public functions; nothing inside the engine is
// instrumented. They are kept in memory and written out at exit.
//
// A nil *tracer records nothing, so workload code calls tr.begin/end
// unconditionally and the untraced run pays one nil check per call.

type span struct {
	ID      int
	Parent  int // 0 = root
	Request int // the operation the span belongs to
	Lane    int // goroutine lane (client index); spans nest per lane
	Name    string
	Layer   string
	Start   time.Duration // since the tracer's epoch
	End     time.Duration
}

type tracer struct {
	epoch time.Time
	speed *speedometer

	mu    sync.Mutex
	spans []span
	open  map[int][]int // lane → stack of open span indexes
}

// newTracer shares the speedometer's epoch, so span times can be read in
// reference time like every other interval (speed.go).
func newTracer(speed *speedometer) *tracer {
	return &tracer{epoch: speed.epoch, speed: speed, open: make(map[int][]int)}
}

// begin opens a span on a lane; the innermost open span of that lane
// becomes its parent. It returns a handle for end.
func (t *tracer) begin(lane, request int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	parent := 0
	if st := t.open[lane]; len(st) > 0 {
		parent = t.spans[st[len(st)-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Lane: lane,
		Name: name, Layer: layer, Start: now,
	})
	idx := len(t.spans) - 1
	t.open[lane] = append(t.open[lane], idx)
	t.mu.Unlock()
	return idx + 1
}

// end closes the span begin returned; spans of one lane close in LIFO order.
func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	sp := &t.spans[h-1]
	sp.End = now
	if st := t.open[sp.Lane]; len(st) > 0 && st[len(st)-1] == h-1 {
		t.open[sp.Lane] = st[:len(st)-1]
	}
	t.mu.Unlock()
}

// layerTime is one row of the per-layer table.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// selfTimes computes each layer's self time: a span's duration minus its
// direct children's, summed per layer.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	by := make(map[string]*layerTime)
	for _, sp := range t.spans {
		lt := by[sp.Layer]
		if lt == nil {
			lt = &layerTime{Layer: sp.Layer}
			by[sp.Layer] = lt
		}
		d := sp.End - sp.Start
		lt.Spans++
		lt.Total += d
		lt.Self += d - child[sp.ID]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// durations returns the durations of every span with the given name, in
// recording order, in seconds of reference time.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	tl := t.speed.timeline()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			mid := (sp.Start + sp.End).Seconds() / 2
			out = append(out, (sp.End-sp.Start).Seconds()/tl.factorAt(mid))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events; chrome://tracing and Perfetto both load it).
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, sp := range t.spans {
		events[i] = event{
			Name: sp.Name, Cat: sp.Layer, Ph: "X",
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: sp.Lane,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent, "request": sp.Request},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "otherData": map[string]string{"workload": workload}}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
