package main

import (
	"strings"
	"testing"
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
			in:      line("BenchmarkE2/layers-4-2") + line("BenchmarkE2/layers-4-2"),
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
			if b := rep.Benchmarks[0]; b.Runs != 100 || b.NsPerOp != 123 || b.BytesPerOp != 45 || b.AllocsPerOp != 6 {
				t.Errorf("first line parsed as %+v", b)
			}
		})
	}
}
