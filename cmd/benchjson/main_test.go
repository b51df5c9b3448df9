package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestParseProcsSuffix(t *testing.T) {
	line := func(name string) string { return name + "  100  123 ns/op  45 B/op  6 allocs/op\n" }
	for _, tc := range []struct {
		name      string
		in        string
		wantProcs int
		wantNames []string
		wantErr   bool
	}{
		{
			name:      "one proc: no suffix, parameters survive",
			in:        line("BenchmarkE2/layers-4") + line("BenchmarkE2/layers-8") + line("BenchmarkE5/n=10"),
			wantProcs: 1,
			wantNames: []string{"BenchmarkE2/layers-4", "BenchmarkE2/layers-8", "BenchmarkE5/n=10"},
		},
		{
			name:      "one proc: parameters alone are never a shared suffix",
			in:        line("BenchmarkE2/layers-4") + line("BenchmarkE2/layers-8"),
			wantProcs: 1,
			wantNames: []string{"BenchmarkE2/layers-4", "BenchmarkE2/layers-8"},
		},
		{
			name:      "two procs: shared suffix stripped, parameters survive",
			in:        line("BenchmarkE2/layers-4-2") + line("BenchmarkE2/layers-8-2") + line("BenchmarkE5/n=10-2"),
			wantProcs: 2,
			wantNames: []string{"BenchmarkE2/layers-4", "BenchmarkE2/layers-8", "BenchmarkE5/n=10"},
		},
		{
			name:    "duplicate names are an error",
			in:      line("BenchmarkE2/layers-4-2") + line("BenchmarkE2/layers-4-2") + line("BenchmarkE2/layers-8-2"),
			wantErr: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := parse(strings.NewReader("goos: linux\n" + tc.in + "PASS\n"))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("no error; parsed %+v", rep.Benchmarks)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.GoMaxProcs != tc.wantProcs {
				t.Errorf("GoMaxProcs = %d, want %d", rep.GoMaxProcs, tc.wantProcs)
			}
			var names []string
			for _, b := range rep.Benchmarks {
				names = append(names, b.Name)
			}
			if strings.Join(names, " ") != strings.Join(tc.wantNames, " ") {
				t.Errorf("names = %v, want %v", names, tc.wantNames)
			}
			if b := rep.Benchmarks[0]; b.Samples != 1 || b.Runs != 100 || b.NsPerOp != 123 || b.BytesPerOp != 45 || b.AllocsPerOp != 6 {
				t.Errorf("first line parsed as %+v", b)
			}
		})
	}
}

// TestParseFoldsSamples: -count=N repeats every name N times; each name's
// samples fold into one row, in first-appearance order, with the median and
// quartiles of ns/op and the median of every other figure.
func TestParseFoldsSamples(t *testing.T) {
	var in strings.Builder
	for _, ns := range []int{500, 100, 300, 200, 400} {
		fmt.Fprintf(&in, "BenchmarkB-2  %d  %d ns/op  %d B/op  %d allocs/op  %d overdeleted/op\n", ns, ns, ns/100, ns/100, ns)
		fmt.Fprintf(&in, "BenchmarkA-2  10  7 ns/op\n")
	}
	rep, err := parse(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Name != "BenchmarkB" || rep.Benchmarks[1].Name != "BenchmarkA" {
		t.Fatalf("rows %+v", rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Samples != 5 || b.Runs != 300 || b.NsPerOp != 300 || b.NsQ1 != 200 || b.NsQ3 != 400 ||
		b.BytesPerOp != 3 || b.AllocsPerOp != 3 || b.Extra["overdeleted/op"] != 300 {
		t.Errorf("folded row %+v", b)
	}
	if got := b.Cell(); got != "300ns ±33%" {
		t.Errorf("Cell() = %q", got)
	}
}

// TestMergeReplacesOnlyParsedRows: -merge keeps the stored record — its
// header and every row it was not handed, byte for byte — puts each parsed
// row in place of the row of its name, appends a new name, and refuses rows
// measured at another GOMAXPROCS.
func TestMergeReplacesOnlyParsedRows(t *testing.T) {
	stored := harness.Record{Goos: "linux", CPU: "stored cpu", GoVersion: runtime.Version(), GoMaxProcs: 2, Benchmarks: []harness.Row{
		{Name: "BenchmarkA", Samples: 5, Runs: 10, NsPerOp: 1.5, NsQ1: 1, NsQ3: 2, AllocsPerOp: 3, Extra: map[string]float64{"x/op": 0.25}},
		{Name: "BenchmarkB", Samples: 5, Runs: 20, NsPerOp: 900, NsQ1: 800, NsQ3: 1000},
		{Name: "BenchmarkC", Samples: 5, Runs: 30, NsPerOp: 7, NsQ1: 7, NsQ3: 7},
	}}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	data, err := json.MarshalIndent(stored, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := parse(strings.NewReader("cpu: other cpu\nBenchmarkB-2  40  500 ns/op  8 B/op  1 allocs/op\nBenchmarkD-2  50  60 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep.GoVersion = runtime.Version()
	merged, err := mergeInto(path, rep)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(v any) string {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var names []string
	for _, r := range merged.Benchmarks {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, " "); got != "BenchmarkA BenchmarkB BenchmarkC BenchmarkD" {
		t.Fatalf("rows %s", got)
	}
	if merged.CPU != "stored cpu" || enc(merged.Benchmarks[0]) != enc(stored.Benchmarks[0]) || enc(merged.Benchmarks[2]) != enc(stored.Benchmarks[2]) {
		t.Errorf("the header or an unparsed row changed: %s", enc(merged))
	}
	if b := merged.Benchmarks[1]; b.Runs != 40 || b.NsPerOp != 500 || b.AllocsPerOp != 1 {
		t.Errorf("BenchmarkB not replaced: %+v", b)
	}
	rep.GoMaxProcs = 4
	if _, err := mergeInto(path, rep); err == nil {
		t.Error("rows at GOMAXPROCS 4 merged into a record at 2")
	}
}
