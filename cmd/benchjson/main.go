// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON report, so the performance trajectory of the eval/chase hot
// paths can be tracked as a checked-in artifact (see `make bench`, which
// writes BENCH_eval.json).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds the metrics a benchmark reported itself (b.ReportMetric), by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the full bench run.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// benchjson runs in the same `make bench` invocation as the benchmarks,
	// so its toolchain is theirs.
	rep.GoVersion = runtime.Version()

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parse reads `go test -bench` output. go test appends -GOMAXPROCS to every
// benchmark name of a run, and nothing at GOMAXPROCS=1 — so a trailing -N is
// that suffix only when every line carries the same one; otherwise it is a
// benchmark's own parameter (layers-4, layers-8) and stays. Two lines with
// the same name are an error: a report with colliding rows cannot be
// compared across runs.
func parse(r io.Reader) (Report, error) {
	rep := Report{GoMaxProcs: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if procs, ok := commonProcsSuffix(rep.Benchmarks); ok {
		rep.GoMaxProcs = procs
		for i := range rep.Benchmarks {
			name := rep.Benchmarks[i].Name
			rep.Benchmarks[i].Name = name[:strings.LastIndex(name, "-")]
		}
	}
	seen := make(map[string]bool, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if seen[b.Name] {
			return rep, fmt.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
	return rep, nil
}

// commonProcsSuffix reports the -N suffix shared by every benchmark name.
func commonProcsSuffix(bs []Result) (int, bool) {
	procs := 0
	for _, b := range bs {
		i := strings.LastIndex(b.Name, "-")
		if i <= 0 {
			return 0, false
		}
		n, err := strconv.Atoi(b.Name[i+1:])
		if err != nil || n <= 0 || (procs != 0 && n != procs) {
			return 0, false
		}
		procs = n
	}
	return procs, procs != 0
}

// parseLine parses one `BenchmarkX-8  100  123 ns/op  45 B/op  6 allocs/op`
// line, name verbatim.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Runs: runs, Extra: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		default:
			r.Extra[unit], _ = strconv.ParseFloat(val, 64)
		}
	}
	return r, true
}
