package harness

import "fmt"

// Record is the schema of BENCH_eval.json: cmd/benchjson writes it from
// `go test -bench -count=N` output, and the experiments command reads the
// timed cells of its tables from it.
type Record struct {
	Goos       string `json:"goos,omitempty"`
	Goarch     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Benchmarks []Row  `json:"benchmarks"`
}

// Row is one benchmark folded over its samples, the repeated runs of
// -count: ns_per_op is their median and ns_q1 / ns_q3 their quartiles; the
// other figures are medians.
type Row struct {
	Name        string  `json:"name"`
	Samples     int     `json:"samples"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsQ1        float64 `json:"ns_q1"`
	NsQ3        float64 `json:"ns_q3"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds the metrics a benchmark reported itself (b.ReportMetric), by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Cell renders the row's time for a table: the median and, as its spread,
// half the distance between the quartiles as a share of the median.
func (r Row) Cell() string {
	spread := 50 * (r.NsQ3 - r.NsQ1) / r.NsPerOp
	t, unit := r.NsPerOp, "ns"
	for _, u := range []string{"µs", "ms", "s"} {
		if t < 1000 {
			break
		}
		t, unit = t/1000, u
	}
	prec := 2 // three significant digits
	for v := t; v >= 10 && prec > 0; v /= 10 {
		prec--
	}
	return fmt.Sprintf("%.*f%s ±%.0f%%", prec, t, unit, spread)
}
