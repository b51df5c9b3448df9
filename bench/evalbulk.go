package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// Workload `eval-bulk`: kernel- and store-bound evaluation. One goroutine
// runs passes of core.Session.Eval over five pre-loaded frozen EDBs — a
// sparse right-linear closure with many rounds, a dense duplicate-heavy
// non-linear closure, a mutually recursive points-to analysis with
// three-way joins, same-generation over a tree, and a non-recursive
// four-atom join on the streaming path. Parser, chase and service are
// idle; this is where a join, dedup, index or arena change shows, and it
// carries the space-per-fact figure.

// evalBulkPassesPerSecond is the frozen pass count per second of --seconds.
const evalBulkPassesPerSecond = 2.0

type bulkItem struct {
	name  string
	tpl   program
	facts []fact
	reps  int    // evaluations per pass
	want  digest // the oracle's IDB facts

	sess  *core.Session
	input *core.Database
	out   *core.Database
	stats core.EvalStats
}

// Frozen input sizes. The graph shapes come from structSeed; --seed
// permutes node labels and fact order.
const (
	rltcNodes, rltcEdges   = 2500, 2800
	denseNodes, denseEdges = 110, 250
	ptVars                 = 500
	sgFanout, sgDepth      = 3, 5
	wideRows, wideDomain   = 4000, 1000
)

func bulkItems(seed uint64) []*bulkItem {
	sg := newRNG(structSeed, "eval-bulk")
	rg := newRNG(seed, "eval-bulk")
	var items []*bulkItem

	sparse := relabel(randomDigraph(sg, rltcNodes, rltcEdges), rg.perm(rltcNodes), rg)
	items = append(items, &bulkItem{name: "rltc-sparse", tpl: tcRightLinear().prog, reps: 1,
		facts: edgeFacts("A", sparse), want: closureDigest("G", rltcNodes, sparse)})

	dense := relabel(randomDigraph(sg, denseNodes, denseEdges), rg.perm(denseNodes), rg)
	items = append(items, &bulkItem{name: "tc-dense", tpl: tcNonLinear().prog, reps: 1,
		facts: edgeFacts("A", dense), want: closureDigest("G", denseNodes, dense)})

	pt := pointsToFacts(sg, rg)
	items = append(items, &bulkItem{name: "pointsto", tpl: pointsTo().prog, reps: 1,
		facts: pt, want: andersen(ptVars, pt)})

	sgFacts, sgWant := sameGenFacts(rg)
	items = append(items, &bulkItem{name: "same-gen", tpl: sameGeneration().prog, reps: 2,
		facts: sgFacts, want: sgWant})

	wide := program{rules: []rule{{head: at("W", v("a"), v("e")),
		body: []atom{at("R", v("a"), v("b")), at("S", v("b"), v("c")), at("T", v("c"), v("d")), at("U", v("d"), v("e"))}}}}
	wf := wideFacts(sg, rg)
	items = append(items, &bulkItem{name: "wide-join", tpl: wide, reps: 2, facts: wf, want: wideJoin(wf)})
	return items
}

// pointsToFacts builds an Andersen input: a quarter of the variables have
// their address taken, copies dominate, loads and stores are rarer.
func pointsToFacts(sg, rg *rng) []fact {
	perm := rg.perm(ptVars)
	var fs []fact
	add := func(pred string, n int) {
		for _, e := range randomDigraph(sg, ptVars, n) {
			fs = append(fs, fact{pred, []int64{int64(perm[e.from]), int64(perm[e.to])}})
		}
	}
	add("AddrOf", ptVars/4)
	add("Assign", ptVars)
	add("Load", ptVars/5)
	add("Store", ptVars/5)
	rg.shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return fs
}

// andersen is the direct model of the four points-to rules: naive
// iteration over the statements until no points-to set grows.
func andersen(vars int, fs []fact) digest {
	pts := make([]map[int64]bool, vars)
	for i := range pts {
		pts[i] = make(map[int64]bool)
	}
	union := func(dst int64, src map[int64]bool) bool {
		grew := false
		for x := range src {
			if !pts[dst][x] {
				pts[dst][x] = true
				grew = true
			}
		}
		return grew
	}
	for _, f := range fs {
		if f.pred == "AddrOf" {
			pts[f.args[0]][f.args[1]] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fs {
			p, q := f.args[0], f.args[1]
			switch f.pred {
			case "Assign": // p = q
				changed = union(p, pts[q]) || changed
			case "Load": // p = *q
				for r := range pts[q] {
					changed = union(p, pts[r]) || changed
				}
			case "Store": // *p = q
				for r := range pts[p] {
					changed = union(r, pts[q]) || changed
				}
			}
		}
	}
	var d digest
	for p, set := range pts {
		for x := range set {
			d.add("PointsTo", int64(p), x)
		}
	}
	return d
}

// sameGenFacts builds a complete tree: Up(child, parent), Down(parent,
// child), Flat(root, root). Sg(x, y) then holds exactly for the pairs of
// nodes on one level, which is the oracle.
func sameGenFacts(rg *rng) ([]fact, digest) {
	levels := [][]int{{0}}
	n := 1
	var fs []fact
	for d := 1; d <= sgDepth; d++ {
		var level []int
		for _, parent := range levels[d-1] {
			for k := 0; k < sgFanout; k++ {
				level = append(level, n)
				fs = append(fs, fact{"Up", []int64{int64(n), int64(parent)}}, fact{"Down", []int64{int64(parent), int64(n)}})
				n++
			}
		}
		levels = append(levels, level)
	}
	fs = append(fs, fact{"Flat", []int64{0, 0}})
	perm := rg.perm(n)
	for i := range fs {
		fs[i].args = []int64{int64(perm[fs[i].args[0]]), int64(perm[fs[i].args[1]])}
	}
	rg.shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	var want digest
	for _, level := range levels {
		for _, x := range level {
			for _, y := range level {
				want.add("Sg", int64(perm[x]), int64(perm[y]))
			}
		}
	}
	return fs, want
}

func wideFacts(sg, rg *rng) []fact {
	perm := rg.perm(wideDomain)
	var fs []fact
	for _, pred := range []string{"R", "S", "T", "U"} {
		for _, e := range randomDigraph(sg, wideDomain, wideRows) {
			fs = append(fs, fact{pred, []int64{int64(perm[e.from]), int64(perm[e.to])}})
		}
	}
	rg.shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return fs
}

// wideJoin is the direct model of W(a, e) :- R(a, b), S(b, c), T(c, d),
// U(d, e): the set of ends reachable by one R, S, T, U step in turn.
func wideJoin(fs []fact) digest {
	succ := make(map[string]map[int64][]int64)
	for _, f := range fs {
		if succ[f.pred] == nil {
			succ[f.pred] = make(map[int64][]int64)
		}
		succ[f.pred][f.args[0]] = append(succ[f.pred][f.args[0]], f.args[1])
	}
	var d digest
	for a, bs := range succ["R"] {
		ends := make(map[int64]bool)
		for _, b := range bs {
			for _, c := range succ["S"][b] {
				for _, dd := range succ["T"][c] {
					for _, e := range succ["U"][dd] {
						ends[e] = true
					}
				}
			}
		}
		for e := range ends {
			d.add("W", a, e)
		}
	}
	return d
}

// load parses the item's program, opens a session and freezes its EDB.
func (it *bulkItem) load(tr *tracer) error {
	h := tr.begin(0, 0, "parser", "parse")
	p, err := core.ParseProgram(it.tpl.String())
	tr.end(h)
	if err != nil {
		return err
	}
	h = tr.begin(0, 0, "core", "core.session_open")
	it.sess, err = core.NewSession(p)
	tr.end(h)
	if err != nil {
		return err
	}
	facts := toCoreFacts(it.facts)
	h = tr.begin(0, 0, "db", "db.load")
	d := core.FromFacts(facts)
	tr.end(h)
	h = tr.begin(0, 0, "db", "db.freeze")
	it.input = d.Freeze().DB()
	tr.end(h)
	return nil
}

// eval runs one evaluation of the item and checks the derived-fact count
// the evaluator reports against the oracle's.
func (it *bulkItem) eval(tr *tracer, id int) (time.Duration, error) {
	h := tr.begin(0, id, "eval", "eval.fixpoint."+it.name)
	t0 := time.Now()
	out, st, err := it.sess.Eval(context.Background(), it.input)
	d := time.Since(t0)
	tr.end(h)
	if err != nil {
		return d, err
	}
	it.out, it.stats = out, st
	if st.Added != it.want.n || out.Len() != it.input.Len()+it.want.n {
		return d, fmt.Errorf("%s derived %d facts (output %d), oracle has %d", it.name, st.Added, out.Len(), it.want.n)
	}
	return d, nil
}

// verify compares the item's last output, fact by fact, with the oracle.
func (it *bulkItem) verify(res *runResult) {
	_, idb := it.tpl.preds()
	got := digestDB(it.out, func(pred string) bool { return idb[pred] })
	if got != it.want {
		res.fail("eval-bulk %s: output digest %v, oracle %v", it.name, got, it.want)
	}
	res.Digests["eval-bulk."+it.name+".input"] = sha(factsSource(it.facts))
	res.Digests["eval-bulk."+it.name+".output"] = sha(got.String())
}

func bulkPass(items []*bulkItem, m *measured, lane *speedLane, tr *tracer, res *runResult, id *int) float64 {
	var wall float64
	for _, it := range items {
		for r := 0; r < it.reps; r++ {
			*id++
			lane.tick()
			t0 := time.Now()
			d, err := it.eval(tr, *id)
			m.add(0, t0, d, true)
			wall += d.Seconds()
			if err != nil {
				res.fail("eval-bulk: %v", err)
			}
		}
	}
	return wall
}

func runEvalBulk(cfg config, spec *benchSpec) (*runResult, error) {
	res := newResult(spec, cfg)
	passes := max(1, int(cfg.seconds*evalBulkPassesPerSecond+0.5))
	if cfg.trace {
		passes = max(1, passes/2)
	}
	lane := newSpeedometer().lane()
	baseline := heapLive()

	var items []*bulkItem
	setup, err := medianSetup(cfg.setupReps(), lane, func(rep int) error {
		items = bulkItems(cfg.seed)
		for _, it := range items {
			if err := it.load(nil); err != nil {
				return err
			}
			if _, err := it.eval(nil, 0); err != nil { // warm-up pass
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	opsPerPass := 0
	for _, it := range items {
		opsPerPass += it.reps
	}

	runtime.GC()
	m := newMeasured(lane.s, 1, passes*opsPerPass)
	var passWalls []float64
	id := 0
	alloc0 := totalAlloc()
	for p := 0; p < passes; p++ {
		passWalls = append(passWalls, bulkPass(items, m, lane, nil, res, &id))
	}
	sec := m.finish()
	allocPerPass := float64(totalAlloc()-alloc0) / float64(passes)
	res.Attempted = id
	live := liveSince(baseline) // inputs, sessions and the last outputs are still referenced
	liveFacts, added := 0, 0
	for _, it := range items {
		liveFacts += it.input.Len() + it.out.Len()
		added += it.stats.Added * it.reps
	}
	res.setEndToEnd(setup, sec, live)
	res.Detail["passes"] = passes
	res.Detail["pass_p50_raw_wall_s"] = median(passWalls)
	res.Detail["facts_per_raw_wall_s"] = float64(added) / median(passWalls)
	res.Detail["derived_facts_per_pass"] = added
	res.Detail["bytes_per_fact"] = float64(live) / float64(liveFacts)
	for _, it := range items {
		it.verify(res)
	}

	if cfg.trace {
		tr := newTracer(lane.s)
		runtime.GC()
		root := tr.begin(0, 0, "bench", "measured")
		tm := newMeasured(lane.s, 1, passes*opsPerPass)
		for p := 0; p < passes; p++ {
			bulkPass(items, tm, lane, tr, res, &id)
		}
		tr.end(root)
		res.Attempted = id
		res.set("bench.trace_overhead_share", tm.finish().wall/sec.wall-1)
		res.setSpanMetrics(tr)

		var rounds, firings, addedN int
		for _, it := range items {
			res.set("eval.fixpoint_ms."+it.name, median(tr.durations("eval.fixpoint."+it.name))*1e3)
			rounds += it.stats.Rounds * it.reps
			firings += it.stats.Firings * it.reps
			addedN += it.stats.Added * it.reps
		}
		res.set("eval.rounds", float64(rounds))
		res.set("eval.firings", float64(firings))
		res.set("eval.added", float64(addedN))
		res.set("eval.useful_firing_ratio", ratio(float64(addedN), float64(firings)))
		res.set("eval.alloc_mb_per_pass", allocPerPass/(1<<20))
		res.set("db.bytes_per_fact", float64(live)/float64(liveFacts))
		probeStore(tr, items, res, lane.factorNow())
		if err := cfg.writeTrace(tr); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

// probeStore times the store's bulk paths on the largest item: load,
// freeze, a full scan. (The session's overhead over its prepared plan is a
// microsecond; it is measured on `optimize`, where evaluations are short
// enough for it to show.)
func probeStore(tr *tracer, items []*bulkItem, res *runResult, factor float64) {
	sorted := append([]*bulkItem(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i].facts) > len(sorted[j].facts) })
	big := sorted[0]
	facts := toCoreFacts(big.facts)
	var d *core.Database
	tLoad := bestOf(3, func() { d = core.FromFacts(facts) })
	res.set("db.load_facts_per_s", ratio(float64(len(facts)), tLoad/factor))
	t0 := time.Now()
	d.Freeze()
	res.set("db.freeze_us", time.Since(t0).Seconds()*1e6/factor)

	// The scan probe reads the biggest output, as the 5 % all-facts requests
	// of serve-mixed do.
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].out.Len() > sorted[j].out.Len() })
	out := sorted[0].out
	h := tr.begin(0, 0, "db", "db.scan")
	tScan := bestOf(2, func() { _ = out.Facts() })
	tr.end(h)
	res.set("db.scan_facts_per_s", ratio(float64(out.Len()), tScan/factor))

}
