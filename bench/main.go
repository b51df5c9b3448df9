// Command bench is the repository's benchmark: four fixed-operation-count
// workloads over the engine's default configuration, every output checked
// against an oracle that shares no code with the engine, every metric
// printed by name with its unit. See README.md in this directory.
//
//	go run ./bench --seed 1 --out bench/results/latest.json      # end-to-end metrics, all workloads
//	go run ./bench --seed 1 --trace 1 --trace-out bench/results  # per-layer metrics + Chrome traces
//	go run ./bench --workload serve-mixed --seed 7 --seconds 12 --trace 0
//	go run ./bench --repeat 3 --out bench/results/a.json         # three sets, medians and spreads
//	go run ./bench compare bench/results/a.json bench/results/b.json
//
// bench imports only the facade (internal/core) and the HTTP service
// (internal/service); it sets no ablation switch, so refactors behind the
// facade need not touch it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // scales every frozen operation count
	trace    bool
	traceOut string // directory for Chrome trace files; "" = do not write
	reps     int    // set-up repetitions; 0 = the default
}

// setupReps is how often set-up is repeated for the setup_s median. The
// traced run pays for two measured passes and keeps set-up short.
func (c config) setupReps() int {
	if c.reps > 0 {
		return c.reps
	}
	if c.trace {
		return 1
	}
	return 3
}

func (c config) writeTrace(tr *tracer) error {
	if c.traceOut == "" {
		return nil
	}
	if err := os.MkdirAll(c.traceOut, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(c.traceOut, "trace-"+c.workload+".json"), c.workload)
}

var workloadRunners = map[string]func(config, *benchSpec) (*runResult, error){
	"optimize":    runOptimize,
	"eval-bulk":   runEvalBulk,
	"serve-mixed": runServeMixed,
	"ivm-churn":   runIVMChurn,
}

// setEndToEnd fills the end-to-end family from a measured section: the
// median segment rate, the median and the tail percentile of the primary
// operation's latency — all in reference time — and the live heap the
// workload's state occupies.
func (r *runResult) setEndToEnd(setupS float64, sec section, liveBytes uint64) {
	r.set("setup_s", setupS)
	r.set("ops_per_s", median(sec.rates))
	r.set("op_p50_ms", median(sec.samples)*1e3)
	q := tailQuantile(len(sec.samples))
	r.set("op_tail_ms", percentile(sec.samples, q)*1e3)
	r.set("live_heap_mb", mb(liveBytes))
	sorted := append([]float64(nil), sec.rates...)
	sort.Float64s(sorted)
	r.Detail["samples"] = len(sec.samples)
	r.Detail["tail_percentile"] = q * 100
	r.Detail["segment_rates"] = sorted
	r.Detail["measured_s"] = sec.wall
	r.Detail["measured_raw_wall_s"] = sec.rawWall
	r.Detail["speed_factor"] = sec.factor
	r.Detail["raw_op_p50_ms"] = median(sec.raw) * 1e3
	r.Detail["raw_op_tail_ms"] = percentile(sec.raw, q) * 1e3
	r.Detail["raw_ops_per_s"] = float64(len(sec.samples)) / sec.rawWall
}

// layers are the engine packages a span can be attributed to, plus bench
// itself (harness time between spans).
var layers = []string{"parser", "ast", "analysis", "depgraph", "rewrite", "db", "eval", "chase",
	"minimize", "equivopt", "preserve", "magic", "core", "service", "bench"}

// setSpanMetrics reports each layer's self time as a share of the traced
// measured section. Self times partition the root spans, so their sum is
// the section.
func (r *runResult) setSpanMetrics(tr *tracer) {
	var total float64
	self := make(map[string]float64)
	table := tr.selfTimes()
	for _, lt := range table {
		self[lt.Layer] = lt.Self.Seconds()
		total += lt.Self.Seconds()
	}
	for _, l := range layers {
		r.set(l+".share", ratio(self[l], total))
	}
	rows := make([]map[string]any, 0, len(table))
	for _, lt := range table {
		rows = append(rows, map[string]any{"layer": lt.Layer, "spans": lt.Spans,
			"total_ms": lt.Total.Seconds() * 1e3, "self_ms": lt.Self.Seconds() * 1e3})
	}
	r.Detail["layer_self_time"] = rows
}

// resultFile is what --out writes: the environment and one entry per run.
type resultFile struct {
	Env  envBlock     `json:"env"`
	Runs []*runResult `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line (default: all four)")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 0, "seconds one measured section is sized for (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run")
		out      = flag.String("out", "", "write the runs as JSON to this file")
		traceOut = flag.String("trace-out", "", "with --trace 1: directory for Chrome trace-event files")
		repeat   = flag.Int("repeat", 1, "run this many sets, each in a fresh process, and print medians and spreads")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *workload == "" || *repeat > 1 {
		// Every (set, workload) runs in a fresh process: the plan cache, the
		// verdict store and the heap are process-wide, and a run must not
		// inherit another's.
		names := spec.workloadNames()
		if *workload != "" {
			names = []string{*workload}
		}
		os.Exit(runChildren(spec, names, *repeat, *out))
	}
	run := workloadRunners[*workload]
	if run == nil {
		fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, spec.workloadNames()))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut}
	t0 := time.Now()
	res, err := run(cfg, spec)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	checkGolden(res)
	res.Correct = res.Failed == 0
	printResult(res, time.Since(t0))
	if *out != "" {
		if err := writeJSON(*out, resultFile{Env: readEnv(), Runs: []*runResult{res}}); err != nil {
			fatal(err)
		}
	}
	// The driver's contract: the last line of standard output is one JSON
	// object with exactly these keys.
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of a run by name, with its unit.
func printResult(r *runResult, took time.Duration) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed=%d  %s  attempted=%d failed=%d  (%.1fs)\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed, took.Seconds())
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Detail) {
		if k == "layer_self_time" {
			continue
		}
		fmt.Printf("  . %-34s %v\n", k, r.Detail[k])
	}
	if rows, ok := r.Detail["layer_self_time"].([]map[string]any); ok {
		fmt.Println("  layer            spans    total_ms     self_ms")
		for _, row := range rows {
			fmt.Printf("  %-14s %7d %11.2f %11.2f\n", row["layer"], row["spans"], row["total_ms"], row["self_ms"])
		}
	}
	for _, f := range r.Failures {
		fmt.Println("  FAIL:", f)
	}
}
