package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// `bench compare A.json B.json` applies each metric's direction and bound
// from BENCHMARK.json to two result files (each holding one or more runs
// per workload, as --repeat writes them) and prints one row per
// (workload, metric): both medians, both spreads, the ratio stated on A,
// and a verdict. Where either side's run-to-run spread exceeds the bound
// the row reads `unresolved`, not `unchanged`, unless every B run is
// better than every A run.

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values groups a file's runs: workload → metric → one value per run.
func (f *resultFile) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// spread is the run-to-run spread as a share of the median: the quartile
// distance from four runs up, the full range below that.
func spread(xs []float64) float64 {
	if len(xs) >= 4 {
		return quartileSpread(xs)
	}
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[len(s)-1] - s[0]) / m
}

// verdict compares B with A for one metric. worse is how much B's median
// is worse than A's, as a share of A's.
func verdict(d metricDecl, perLayer bool, a, b []float64) string {
	ma, mb := median(a), median(b)
	if perLayer || ma == 0 {
		return ""
	}
	worse := (mb - ma) / ma
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			better := x < y
			if d.Better == "higher" {
				better = x > y
			}
			allBetter = allBetter && better
			allWorse = allWorse && !better && x != y
		}
	}
	if d.Better == "higher" {
		worse = -worse
	}
	noisy := spread(a) > d.Bound || spread(b) > d.Bound
	switch {
	case noisy && allBetter:
		return "better"
	case noisy && !(allWorse && worse > d.Bound):
		return "unresolved"
	case worse > d.Bound:
		return "REGRESSED"
	case worse < -d.Bound:
		return "better"
	}
	return "unchanged"
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	fa, err := loadResults(args[0])
	if err != nil {
		fatal(err)
	}
	fb, err := loadResults(args[1])
	if err != nil {
		fatal(err)
	}
	return printComparison(spec, fa.values(), fb.values())
}

// printComparison prints the table and returns 1 if any row regressed.
func printComparison(spec *benchSpec, va, vb map[string]map[string][]float64) int {
	fmt.Printf("%-12s %-34s %6s %14s %7s %14s %7s %9s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A sprd", "B median", "B sprd", "B ÷ A", "bound", "verdict")
	status := 0
	for _, w := range spec.workloadNames() {
		for _, name := range sortedKeys(va[w]) {
			a, b := va[w][name], vb[w][name]
			if len(b) == 0 {
				continue
			}
			d, perLayer, _ := spec.decl(name)
			v := verdict(d, perLayer, a, b)
			if v == "REGRESSED" {
				status = 1
			}
			bound := "-"
			if !perLayer {
				bound = strconv.FormatFloat(d.Bound, 'g', 3, 64)
			}
			fmt.Printf("%-12s %-34s %6s %14.4f %6.1f%% %14.4f %6.1f%% %9.4f %6s  %s\n",
				w, name, d.Unit, median(a), spread(a)*100, median(b), spread(b)*100, ratio(median(b), median(a)), bound, v)
		}
	}
	return status
}

// runChildren runs `sets` sets of the named workloads, each run in a fresh
// process of this binary, shows their output, gathers the runs into one
// file and, for more than one set, prints the medians and spreads. The A/A
// table of two such files comes from `compare`.
func runChildren(spec *benchSpec, names []string, sets int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".", ".bench-repeat-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "out" && f.Name != "workload" {
			args = append(args, "--"+f.Name+"="+f.Value.String())
		}
	})
	all := resultFile{Env: readEnv()}
	status := 0
	for set := 1; set <= sets; set++ {
		for _, name := range names {
			part := filepath.Join(dir, name+"-"+strconv.Itoa(set)+".json")
			cmd := exec.Command(exe, append(args, "--workload="+name, "--out="+part)...)
			cmd.Stderr = os.Stderr
			if sets == 1 {
				cmd.Stdout = os.Stdout
			}
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d, %s: %v\n", set, name, err)
				status = 1
			}
			f, err := loadResults(part)
			if err != nil {
				fatal(err)
			}
			all.Runs = append(all.Runs, f.Runs...)
		}
		if sets > 1 {
			fmt.Printf("set %d of %d done\n", set, sets)
		}
	}
	if sets > 1 {
		vals := all.values()
		fmt.Printf("%-12s %-34s %6s %14s %7s %14s %14s\n", "workload", "metric", "unit", "median", "spread", "min", "max")
		for _, w := range names {
			for _, name := range sortedKeys(vals[w]) {
				xs := append([]float64(nil), vals[w][name]...)
				sort.Float64s(xs)
				d, _, _ := spec.decl(name)
				fmt.Printf("%-12s %-34s %6s %14.4f %6.1f%% %14.4f %14.4f\n", w, name, d.Unit, median(xs), spread(xs)*100, xs[0], xs[len(xs)-1])
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fatal(err)
		}
	}
	return status
}

// --- Golden digests --------------------------------------------------------------

// goldenFile is bench/expected/seed1.json: the digests of every input and
// output of a seed-1 run at the frozen operation counts.
type goldenFile struct {
	// Seconds and Clients are the run shape the digests were taken at; a
	// run of another shape is not compared.
	Seconds float64                      `json:"seconds"`
	Clients int                          `json:"clients"`
	Digests map[string]map[string]string `json:"digests"` // workload → name → digest
}

func goldenPath() string {
	for _, p := range []string{"bench/expected/seed1.json", "expected/seed1.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "bench/expected/seed1.json"
}

// checkGolden compares a seed-1 end-to-end run with the checked-in
// digests; a mismatch is a failure. Set BENCH_UPDATE_GOLDEN=1 to rewrite
// the file from this run instead.
func checkGolden(r *runResult) {
	if r.Seed != 1 || r.Trace {
		return
	}
	seconds, _ := r.Detail["seconds"].(float64)
	path := goldenPath()
	var g goldenFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			r.fail("golden %s: %v", path, err)
			return
		}
	}
	if os.Getenv("BENCH_UPDATE_GOLDEN") != "" {
		if g.Digests == nil || g.Seconds != seconds || g.Clients != serveClients() {
			g = goldenFile{Seconds: seconds, Clients: serveClients(), Digests: make(map[string]map[string]string)}
		}
		g.Digests[r.Workload] = r.Digests
		if err := writeJSON(path, g); err != nil {
			r.fail("golden %s: %v", path, err)
		}
		return
	}
	if g.Seconds != seconds || g.Clients != serveClients() {
		r.Detail["golden"] = fmt.Sprintf("not compared: goldens are for %.0fs and %d clients", g.Seconds, g.Clients)
		return
	}
	want := g.Digests[r.Workload]
	for _, name := range sortedKeys(r.Digests) {
		if want[name] != r.Digests[name] {
			r.fail("golden digest %s: got %s, expected %s", name, r.Digests[name], want[name])
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := r.Digests[name]; !ok {
			r.fail("golden digest %s was not produced", name)
		}
	}
	r.Detail["golden"] = fmt.Sprintf("%d digests match", len(want))
}
