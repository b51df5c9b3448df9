package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden and the REPL transcript under testdata/repl")

// goldenCases maps a golden file to the CLI invocation that regenerates it.
var goldenCases = []struct {
	golden string
	args   []string
}{
	{"tc.eval.golden", []string{"eval", testdataPath("tc.dl")}},
	{"reachability.eval.golden", []string{"eval", testdataPath("reachability.dl")}},
	{"ancestor.eval.golden", []string{"eval", testdataPath("ancestor.dl")}},
	{"ex7.minimize.golden", []string{"minimize", testdataPath("ex7.dl")}},
	{"ex11.equivopt.golden", []string{"equivopt", testdataPath("ex11.dl")}},
	{"ex19.equivopt.golden", []string{"equivopt", testdataPath("ex19.dl")}},
	{"ancestor.magic.golden", []string{"magic", testdataPath("ancestor.dl"), `Anc("ann", y)`}},
	{"dead.magic.golden", []string{"magic", testdataPath("dead.dl"), "Dead(3)"}},
	{"ex11.preserve.golden", []string{"preserve", testdataPath("ex11.dl")}},
	{"chain.preserve.golden", []string{"preserve", testdataPath("preserve/chain.dl")}},
	{"term_diverge.preserve.golden", []string{"preserve", testdataPath("vet/term_diverge.dl")}},
	{"term_ja.preserve.golden", []string{"preserve", testdataPath("vet/term_ja.dl")}},
	{"term_sticky.preserve.golden", []string{"preserve", testdataPath("vet/term_sticky.dl")}},
	{"term_wa.preserve.golden", []string{"preserve", testdataPath("vet/term_wa.dl")}},
	{"term_ws.preserve.golden", []string{"preserve", testdataPath("vet/term_ws.dl")}},
	{"tgd.preserve.golden", []string{"preserve", testdataPath("vet/tgd.dl")}},
}

// TestGoldenFiles compares CLI output byte-for-byte against the stored
// golden files — the release-style regression net over the paper's own
// programs. Regenerate with: go test ./cmd/datalog -run TestGoldenFiles -update
func TestGoldenFiles(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.golden, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tc.args, &sb); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			path := filepath.Join("..", "..", "testdata", "golden", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if sb.String() != string(want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", tc.golden, sb.String(), want)
			}
		})
	}
}
