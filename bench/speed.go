package main

import (
	"sort"
	"sync"
	"time"
)

// The speedometer. The reference box is a 2-core virtual machine on a
// shared host whose effective CPU speed drifts by ±15 % over minutes and by
// up to 30 % within seconds (measured with a pure ALU loop; the guest sees
// no steal time, so CPU time drifts with the wall; allocation-heavy code
// drifts by up to 50 %). A change that is worth
// 5 % cannot be told from that drift by repeating runs: the drift is slower
// than a run and faster than a set of runs.
//
// So every run samples the machine while it measures: a fixed kernel —
// build a hash map of 20,000 keys, probe it, append to a slice, which is
// what the engine's time goes to: hashing, allocation, the collector — runs
// for about 3 ms between operations, every 100 ms or so. (Of the kernels
// tried, this one tracked the workloads best: over twelve runs spanning a
// slow phase, `eval-bulk` throughput spread by 25 % raw, by 11 % against an
// 8 MB dependent-load walk, and by 2.7 % against this kernel.) A timed interval is then reported in *reference
// time*: its wall time × (the kernel's nominal time ÷ the kernel's time
// around that moment, interpolated). On a quiet reference box the factor is
// 1 and reference time is wall time; when a neighbour halves the machine,
// the kernel and the operation slow down together and the quotient holds.
// The raw wall figures are kept in each result's detail.

const (
	// speedNominal is the kernel's time on the reference box when quiet.
	speedNominal = 3.1e-3
	// speedInterval is the target spacing of samples.
	speedInterval = 100 * time.Millisecond
	speedSteps    = 64_000
	speedKeys     = 20_000
)

type speedSample struct {
	at   float64 // seconds since the epoch, middle of the kernel run
	took float64 // seconds the kernel ran
}

type speedometer struct {
	epoch time.Time

	mu      sync.Mutex
	samples []speedSample
}

func newSpeedometer() *speedometer { return &speedometer{epoch: time.Now()} }

// speedLane is one goroutine's handle: it remembers when that goroutine
// last sampled.
type speedLane struct {
	s    *speedometer
	last time.Time
	sink uint64
}

func (s *speedometer) lane() *speedLane {
	l := &speedLane{s: s}
	l.sample()
	return l
}

// sample runs the kernel once and records how long it took.
func (l *speedLane) sample() {
	t0 := time.Now()
	x := uint64(0x2545F4914F6CDD1D)
	m := make(map[uint64]int32, 64)
	var rows []uint64
	for i := 0; i < speedSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % speedKeys
		if id, ok := m[k]; ok {
			x += rows[2*id+1]
		} else {
			m[k] = int32(len(rows) / 2)
			rows = append(rows, k, x)
		}
	}
	l.sink += x + uint64(len(rows))
	now := time.Now()
	took := now.Sub(t0).Seconds()
	l.last = now
	l.s.mu.Lock()
	l.s.samples = append(l.s.samples, speedSample{at: t0.Sub(l.s.epoch).Seconds() + took/2, took: took})
	l.s.mu.Unlock()
}

// factorSince is the median slowness over the samples taken at or after
// `from` (seconds since the epoch).
func (s *speedometer) factorSince(from float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var took []float64
	for _, p := range s.samples {
		if p.at >= from {
			took = append(took, p.took)
		}
	}
	if len(took) == 0 {
		return 1
	}
	return median(took) / speedNominal
}

// factorNow samples and returns the machine's slowness right now, for the
// probes that time a handful of calls outside any measured section.
func (l *speedLane) factorNow() float64 {
	from := time.Since(l.s.epoch).Seconds()
	for i := 0; i < 3; i++ {
		l.sample()
	}
	return l.s.factorSince(from)
}

// tick samples if the last sample is older than the interval. Workloads
// call it between operations, never inside a timed interval.
func (l *speedLane) tick() {
	if time.Since(l.last) >= speedInterval {
		l.sample()
	}
}

// timeline is the sorted, smoothed sample sequence a run's intervals are
// normalized against. Each point is the median of itself and its two
// neighbours, so one preempted kernel run does not dent the curve.
type timeline struct {
	at     []float64
	factor []float64 // kernel time ÷ nominal: > 1 when the machine is slow
}

func (s *speedometer) timeline() timeline {
	s.mu.Lock()
	pts := append([]speedSample(nil), s.samples...)
	s.mu.Unlock()
	sort.Slice(pts, func(i, j int) bool { return pts[i].at < pts[j].at })
	tl := timeline{at: make([]float64, len(pts)), factor: make([]float64, len(pts))}
	for i, p := range pts {
		lo, hi := max(0, i-1), min(len(pts)-1, i+1)
		w := []float64{pts[lo].took, p.took, pts[hi].took}
		tl.at[i] = p.at
		tl.factor[i] = median(w) / speedNominal
	}
	return tl
}

// factorAt is the machine's slowness at time t (seconds since the epoch),
// interpolated between the neighbouring samples.
func (tl timeline) factorAt(t float64) float64 {
	n := len(tl.at)
	if n == 0 {
		return 1
	}
	i := sort.SearchFloat64s(tl.at, t)
	switch {
	case i == 0:
		return tl.factor[0]
	case i == n:
		return tl.factor[n-1]
	}
	w := (t - tl.at[i-1]) / (tl.at[i] - tl.at[i-1])
	return tl.factor[i-1]*(1-w) + tl.factor[i]*w
}

// median factor over the run, for the result's detail.
func (tl timeline) medianFactor() float64 { return median(tl.factor) }
