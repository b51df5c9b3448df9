package main

import (
	"math"
	"testing"
)

// The smoke test runs all four workloads at about 1/100 of the frozen
// operation counts, so `go test ./...` proves on every change that the
// benchmark still builds against the facade, that every oracle passes, and
// that the metric names it emits are exactly the ones BENCHMARK.json
// declares.

func smokeRun(t *testing.T, spec *benchSpec, name string, seed uint64, trace bool) *runResult {
	t.Helper()
	cfg := config{workload: name, seed: seed, seconds: float64(spec.RunSeconds) / 100, trace: trace, reps: 1}
	res, err := workloadRunners[name](cfg, spec)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", name, seed, trace, res.Failed, res.Attempted, res.Failures)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s: nothing attempted", name)
	}
	return res
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadRunners) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench runs %d", len(spec.Workloads), len(workloadRunners))
	}
	for _, list := range [][]metricDecl{spec.EndToEnd, spec.PerLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %v", d.Name, metricName)
			}
		}
	}
	for _, name := range spec.workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			if workloadRunners[name] == nil {
				t.Fatalf("workload %s is declared but not implemented", name)
			}
			a := smokeRun(t, spec, name, 1, false)
			traced := smokeRun(t, spec, name, 1, true)

			// Every declared metric of the family, none undeclared (set panics
			// on an undeclared name; finish fills only per-layer gaps).
			checkFamily(t, a, spec.EndToEnd)
			checkFamily(t, traced, spec.PerLayer)
			for _, d := range spec.EndToEnd {
				if v := a.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.Name, v)
				}
			}

			// Same seed ⇒ the same inputs, outputs and exact counts. (ivm-churn
			// has no exact-count metric of its own and is the slowest to set
			// up; its determinism is covered by TestSeedsChangeInputs.)
			if name == "ivm-churn" {
				return
			}
			again := smokeRun(t, spec, name, 1, true)
			if traced.Attempted != again.Attempted {
				t.Errorf("%s: attempted %d then %d with one seed", name, traced.Attempted, again.Attempted)
			}
			for _, k := range sortedKeys(traced.Digests) {
				if traced.Digests[k] != again.Digests[k] {
					t.Errorf("%s: digest %s differs between two runs of seed 1", name, k)
				}
			}
			for _, m := range exactCounts {
				if traced.Metrics[m].Value != again.Metrics[m].Value {
					t.Errorf("%s: %s = %v then %v with one seed", name, m, traced.Metrics[m].Value, again.Metrics[m].Value)
				}
			}
		})
	}
}

// TestSeedsChangeInputs checks, on the generators alone, that one seed
// reproduces its inputs and another seed changes them.
func TestSeedsChangeInputs(t *testing.T) {
	inputs := func(seed uint64) map[string]string {
		out := make(map[string]string)
		var srcs []string
		for _, op := range optimizeOps(seed, 200, 0) {
			srcs = append(srcs, op.src, op.src2, op.query)
		}
		out["optimize"] = sha(srcs...)
		srcs = nil
		for _, it := range bulkItems(seed) {
			srcs = append(srcs, factsSource(it.facts))
		}
		out["eval-bulk"] = sha(srcs...)
		sg, rg := newRNG(structSeed, "ivm"), newRNG(seed, "ivm")
		out["ivm-churn"] = sha(factsSource(newAuthzModel(sg, rg, ivmAuthzSizes).facts()))
		sg, rg = newRNG(structSeed, "serve-tenant-0"), newRNG(seed, "serve-tenants")
		out["serve-mixed"] = sha(factsSource(newAuthzModel(sg, rg, serveAuthzSizes).facts()), factsSource(newReachModel(sg, rg).facts()))
		return out
	}
	one, again, two := inputs(1), inputs(1), inputs(2)
	for _, w := range sortedKeys(one) {
		if one[w] != again[w] {
			t.Errorf("%s: seed 1 generated two different inputs", w)
		}
		if one[w] == two[w] {
			t.Errorf("%s: seeds 1 and 2 generated the same input", w)
		}
	}
}

func checkFamily(t *testing.T, r *runResult, want []metricDecl) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", r.Workload, len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s was not reported", r.Workload, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", r.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// exactCounts are the per-layer metrics that are counts, not times: they
// must be identical from run to run of one seed.
var exactCounts = []string{
	"minimize.removed_share", "chase.decided_share", "chase.unknown_share", "bench.failed_share",
	"eval.rounds", "eval.firings", "eval.added", "eval.useful_firing_ratio",
	"service.wire_in_bytes_per_req", "service.wire_out_bytes_per_req",
	"service.seq_gaps", "service.frames_dropped", "service.statz_eval_mismatch",
}

func TestNaiveEval(t *testing.T) {
	in := newFactSet()
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}} {
		in.add("A", e[:])
	}
	out := naiveEval(tcRightLinear().prog, in)
	if got := len(out.rows["G"]); got != 6 {
		t.Fatalf("closure of a 4-chain has %d facts, want 6", got)
	}
	if got := answers(out, at("G", c(1), v("y"))); len(got) != 3 {
		t.Fatalf("G(1, y) has answers %v, want 3", got)
	}
	if d := closureDigest("G", 5, []edge{{1, 2}, {2, 3}, {3, 4}}); d.n != 6 {
		t.Fatalf("BFS closure has %d pairs, want 6", d.n)
	}
}

func TestStats(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if q := tailQuantile(5000); q != 0.99 {
		t.Errorf("tail of 5000 samples = %v, want p99", q)
	}
	if q := tailQuantile(100); q != 0.9 {
		t.Errorf("tail of 100 samples = %v, want p90 (ten samples beyond)", q)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	cases := []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10.1, 10}, "unchanged"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "REGRESSED"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "better"},
		{[]float64{10, 13, 8}, []float64{10.5, 12, 9}, "unresolved"},
		{[]float64{10, 13, 9}, []float64{7, 8, 6}, "better"},
	}
	for _, c := range cases {
		if got := verdict(lower, false, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}
