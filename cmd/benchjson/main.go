// Command benchjson converts `go test -bench -benchmem -count=N` output on
// stdin into a JSON report (harness.Record), so the performance trajectory
// of the eval/chase hot paths can be tracked as a checked-in artifact (see
// `make bench`, which writes BENCH_eval.json). Each benchmark's N samples
// fold into one row: the median with its quartiles. With -merge the record
// at -o is kept and only the rows parsed replace theirs, a new one appended
// (`make bench-maintain` re-records its families this way).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	merge := flag.Bool("merge", false, "replace only the parsed rows of the record at -o")
	flag.Parse()

	rep, err := parse(os.Stdin)
	// benchjson runs in the same `make bench` invocation as the benchmarks,
	// so its toolchain is theirs.
	rep.GoVersion = runtime.Version()
	if err == nil && *merge {
		rep, err = mergeInto(*out, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

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

// mergeInto returns the record stored at path with each row of rep in place
// of the row of its name, or appended when it has none; every other row, and
// the record's header, stay as stored. rep must come from runs at the
// record's GOMAXPROCS and toolchain, or its rows would not compare with the
// others.
func mergeInto(path string, rep harness.Record) (harness.Record, error) {
	var rec harness.Record
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	switch {
	case err != nil:
		return rec, fmt.Errorf("-merge: %w", err)
	case rec.GoMaxProcs != rep.GoMaxProcs || rec.GoVersion != rep.GoVersion:
		return rec, fmt.Errorf("-merge: the rows ran at GOMAXPROCS %d under %s, %s holds %d under %s",
			rep.GoMaxProcs, rep.GoVersion, path, rec.GoMaxProcs, rec.GoVersion)
	}
	for _, row := range rep.Benchmarks {
		if i := slices.IndexFunc(rec.Benchmarks, func(r harness.Row) bool { return r.Name == row.Name }); i >= 0 {
			rec.Benchmarks[i] = row
		} else {
			rec.Benchmarks = append(rec.Benchmarks, row)
		}
	}
	return rec, nil
}

// parse reads `go test -bench` output. go test appends -GOMAXPROCS to every
// benchmark name of a run, and nothing at GOMAXPROCS=1 — so a trailing -N is
// that suffix only when every line carries the same one; otherwise it is a
// benchmark's own parameter (layers-4, layers-8) and stays. Every name must
// appear as often as every other, once per -count: a name seen more or fewer
// times collides with another benchmark's, and a report with colliding rows
// cannot be compared across runs.
func parse(r io.Reader) (harness.Record, error) {
	rep := harness.Record{GoMaxProcs: 1}
	var samples []harness.Row
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
			if s, ok := parseLine(line); ok {
				samples = append(samples, s)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if procs, ok := commonProcsSuffix(samples); ok {
		rep.GoMaxProcs = procs
		for i := range samples {
			samples[i].Name = samples[i].Name[:strings.LastIndex(samples[i].Name, "-")]
		}
	}
	var names []string
	byName := make(map[string][]harness.Row)
	for _, s := range samples {
		if byName[s.Name] == nil {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range names {
		ss := byName[name]
		if n := len(byName[names[0]]); len(ss) != n {
			return rep, fmt.Errorf("benchmark name %q appears %d times, %q %d: two benchmarks share a name", name, len(ss), names[0], n)
		}
		rep.Benchmarks = append(rep.Benchmarks, fold(ss))
	}
	return rep, nil
}

// fold is one row for a benchmark's samples: the median of every figure,
// and the quartiles of ns/op.
func fold(ss []harness.Row) harness.Row {
	// q is the p-quantile of f over ss, interpolated between nearest ranks.
	q := func(p float64, f func(harness.Row) float64) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		slices.Sort(vs)
		lo := int(p * float64(len(vs)-1))
		hi := min(lo+1, len(vs)-1)
		return vs[lo] + (p*float64(len(vs)-1)-float64(lo))*(vs[hi]-vs[lo])
	}
	ns := func(r harness.Row) float64 { return r.NsPerOp }
	row := harness.Row{Name: ss[0].Name, Samples: len(ss), NsPerOp: q(0.5, ns), NsQ1: q(0.25, ns), NsQ3: q(0.75, ns),
		Runs:        int64(q(0.5, func(r harness.Row) float64 { return float64(r.Runs) })),
		BytesPerOp:  int64(q(0.5, func(r harness.Row) float64 { return float64(r.BytesPerOp) })),
		AllocsPerOp: int64(q(0.5, func(r harness.Row) float64 { return float64(r.AllocsPerOp) })),
		Extra:       make(map[string]float64)}
	for unit := range ss[0].Extra {
		row.Extra[unit] = q(0.5, func(r harness.Row) float64 { return r.Extra[unit] })
	}
	return row
}

// commonProcsSuffix reports the -N suffix shared by every benchmark name.
func commonProcsSuffix(ss []harness.Row) (int, bool) {
	procs := 0
	for _, s := range ss {
		i := strings.LastIndex(s.Name, "-")
		if i <= 0 {
			return 0, false
		}
		n, err := strconv.Atoi(s.Name[i+1:])
		if err != nil || n <= 0 || (procs != 0 && n != procs) {
			return 0, false
		}
		procs = n
	}
	return procs, procs != 0
}

// parseLine parses one `BenchmarkX-8  100  123 ns/op  45 B/op  6 allocs/op`
// line, name verbatim.
func parseLine(line string) (harness.Row, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return harness.Row{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return harness.Row{}, false
	}
	r := harness.Row{Name: fields[0], Runs: runs, Extra: make(map[string]float64)}
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
