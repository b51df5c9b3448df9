package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// segments is the number of equal consecutive parts the measured section is
// cut into; a rate metric reports the median part.
const segments = 5

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQuantile is the highest percentile the sample supports: p99 once
// there are 1,000 samples, otherwise the percentile that still has ten
// samples beyond it (choosing-metrics §1), never below the median.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// quartileSpread is (Q3 − Q1) ÷ median with the exclusive-method quartiles
// Python's statistics.quantiles(values, n=4) returns — the figure the
// acceptance check of a benchmark run is stated in.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k)*float64(n+1)/4 - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(n-1) {
			pos = float64(n - 1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// measured collects the timed operations of a measured section, per lane
// (one lane per goroutine that issues operations; the single-goroutine
// workloads have one). The measured time of a lane is the sum of its timed
// intervals: oracle checks, request building and speedometer samples that
// run between operations are not part of it. finish converts every interval
// to reference time (speed.go).
type measured struct {
	speed *speedometer
	lanes [][]opSample
}

type opSample struct {
	at      float64 // seconds since the speedometer's epoch, middle of the interval
	dur     float64 // seconds, raw wall
	primary bool    // feeds the latency percentiles
}

func newMeasured(speed *speedometer, lanes, opsPerLane int) *measured {
	m := &measured{speed: speed, lanes: make([][]opSample, lanes)}
	for i := range m.lanes {
		m.lanes[i] = make([]opSample, 0, opsPerLane)
	}
	return m
}

// add records one operation of a lane. Only that lane's goroutine may call
// it.
func (m *measured) add(lane int, start time.Time, d time.Duration, primary bool) {
	m.lanes[lane] = append(m.lanes[lane], opSample{
		at: start.Sub(m.speed.epoch).Seconds() + d.Seconds()/2, dur: d.Seconds(), primary: primary,
	})
}

// section is a finished measured section in reference time.
type section struct {
	samples []float64 // primary operations' latencies, seconds
	raw     []float64 // the same before normalization
	rates   []float64 // operations per second, one per segment
	wall    float64   // measured seconds per lane (mean over lanes)
	rawWall float64   // the same before normalization
	factor  float64   // the run's median slowness factor
}

// finish cuts every lane into `segments` equal consecutive parts by
// operation index. A segment's rate is operations ÷ measured time, times
// the number of lanes: with closed-loop lanes that is the system's
// throughput while the lanes were waiting on it.
func (m *measured) finish() section {
	tl := m.speed.timeline()
	var sec section
	var segOps [segments]int
	var segTime [segments]float64
	for _, lane := range m.lanes {
		for i, op := range lane {
			k := min(i*segments/len(lane), segments-1)
			norm := op.dur / tl.factorAt(op.at)
			segOps[k]++
			segTime[k] += norm
			sec.wall += norm
			sec.rawWall += op.dur
			if op.primary {
				sec.samples = append(sec.samples, norm)
				sec.raw = append(sec.raw, op.dur)
			}
		}
	}
	lanes := float64(len(m.lanes))
	for k := range segOps {
		if segTime[k] > 0 {
			sec.rates = append(sec.rates, lanes*float64(segOps[k])/segTime[k])
		}
	}
	sec.wall /= lanes
	sec.rawWall /= lanes
	sec.factor = tl.medianFactor()
	return sec
}

// ops is the number of operations recorded.
func (m *measured) ops() int {
	n := 0
	for _, lane := range m.lanes {
		n += len(lane)
	}
	return n
}

// heapLive forces a collection and returns the live heap in bytes.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// liveSince is the live heap now, less a baseline taken before the
// workload built its state.
func liveSince(baseline uint64) uint64 {
	live := heapLive()
	return live - min(live, baseline)
}

// totalAlloc returns the cumulative bytes allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB reads the process's resident high-water mark (VmHWM); 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// medianSetup runs setup reps times, timing each in reference time, and
// returns the median in seconds. The factor of a repetition is the median
// of the speedometer samples taken just before it, inside it (warm-up
// passes tick) and just after it. The state a repetition builds replaces
// the previous one, so only the last survives into the measured section.
func medianSetup(reps int, lane *speedLane, setup func(rep int) error) (float64, error) {
	times := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		from := time.Since(lane.s.epoch).Seconds()
		lane.sample()
		lane.sample()
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return 0, err
		}
		d := time.Since(t0).Seconds()
		lane.sample()
		lane.sample()
		times = append(times, d/lane.s.factorSince(from))
	}
	return median(times), nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// bestOf returns the shortest of n timings of f, in seconds.
func bestOf(n int, f func()) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
