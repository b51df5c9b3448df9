package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Workload `optimize`: the paper's own product — time to a minimized
// program or a verdict. One goroutine runs a fixed, seeded sequence of
// parse → MinimizeProgram (55 %), UniformlyEquivalent with a known answer
// (20 %), the full OptimizeForQuery pipeline (15 %) and tgd operations
// (10 %). Half of the stream are programs the engine has never seen (fresh
// predicate space), half are alpha-renamed repeats of a 64-program hot set
// that fits the 256-entry plan cache. Databases are frozen rule bodies of a
// few dozen facts, so the store's bulk paths and the service do nothing.

// optimizeOpsPerSecond is the frozen operation count per second of
// --seconds, calibrated once on the 2-core reference box.
const optimizeOpsPerSecond = 1500

type optKind int

const (
	opMinimize optKind = iota
	opEquiv
	opPipeline
	opSAT
	opPreserve
	opChase
	optKinds
)

var optKindName = [...]string{"minimize", "equiv", "pipeline", "sat", "preserve", "chase"}

// optPattern is the op mix over twenty slots: 11 minimize, 4 equivalence,
// 3 pipeline, 2 tgd operations (a tgd slot takes the next case of tgdCases
// in turn, whichever of the three tgd kinds it is).
var optPattern = [20]optKind{
	opMinimize, opEquiv, opMinimize, opPipeline, opMinimize, opMinimize, opEquiv, opMinimize, opSAT, opMinimize,
	opMinimize, opEquiv, opMinimize, opPipeline, opMinimize, opMinimize, opEquiv, opMinimize, opPipeline, opPreserve,
}

// progSpec is one entry of the structural program pool: a template and a
// bloated variant of it with a known amount of injected redundancy.
type progSpec struct {
	tpl      template
	bloated  program
	injected int
}

// optimizePool builds the 64 program specs. It depends on structSeed only,
// so every --seed minimizes the same programs up to renaming.
func optimizePool() []progSpec {
	rg := newRNG(structSeed, "optimize-pool")
	tpls := []template{layered(3), layered(5), layered(8), layered(12),
		tcNonLinear(), tcRightLinear(), sameGeneration(), pointsTo()}
	for i := 0; len(tpls) < 32; i++ {
		tpls = append(tpls, randomBase(rg, i, 4+i%5))
	}
	var pool []progSpec
	for _, t := range tpls {
		for _, b := range [][2]int{{3, 1}, {6, 3}} {
			bl, n := bloat(t.prog, b[0], b[1], rg)
			pool = append(pool, progSpec{tpl: t, bloated: bl, injected: n})
		}
	}
	return pool
}

// tgdCase is one Ex. 11/19-style tgd operation with its known answer.
type tgdCase struct {
	kind    optKind
	p1, p2  program
	tgds    []string // each "lhs -> rhs." over the templates' predicate names
	want    core.Verdict
	facts   []fact // chase input
	wantLen int    // chase: size of the completed [P, T](d)
}

func tgdCases() []tgdCase {
	guarded := program{rules: []rule{
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("z"))}},
		{head: at("G", v("x"), v("z")), body: []atom{at("G", v("x"), v("y")), at("G", v("y"), v("z")), at("A", v("y"), v("w"))}},
	}}
	ex19 := program{rules: []rule{
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("z")), at("C", v("z"))}},
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("y")), at("G", v("y"), v("z")), at("G", v("y"), v("w")), at("C", v("w"))}},
	}}
	ex19min := program{rules: []rule{
		ex19.rules[0].clone(),
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("y")), at("G", v("y"), v("z"))}},
	}}
	tc := tcNonLinear().prog
	cases := []tgdCase{
		// Example 11: the guard A(y, w) is redundant given G(x, z) → A(x, w).
		{kind: opSAT, p1: guarded, p2: tc, tgds: []string{"G(x, z) -> A(x, w)."}, want: core.Yes},
		// The same containment without a useful tgd fails: TC ⋢ᵘ guarded TC.
		{kind: opSAT, p1: guarded, p2: tc, tgds: []string{"G(x, z) -> B(x, w)."}, want: core.No},
		// Example 19: G(y, w), C(w) are redundant given G(y, z) → G(y, w) ∧ C(w).
		{kind: opSAT, p1: ex19, p2: ex19min, tgds: []string{"G(y, z) -> G(y, w), C(w)."}, want: core.Yes},
		{kind: opPreserve, p1: guarded, tgds: []string{"G(x, z) -> A(x, w)."}, want: core.Yes},
		{kind: opPreserve, p1: guarded, tgds: []string{"G(x, z) -> B(x, w)."}, want: core.No},
		{kind: opPreserve, p1: ex19, tgds: []string{"G(y, z) -> G(y, w), C(w)."}, want: core.Yes},
	}
	// A weakly-acyclic embedded family: every employee has a manager (an
	// existential), every manager is a boss, and Reports is the closure of
	// Mgr. The chase invents one null per employee without a manager; nulls
	// never feed an existential position again, so it terminates.
	reports := program{rules: []rule{
		{head: at("Reports", v("x"), v("z")), body: []atom{at("Mgr", v("x"), v("z"))}},
		{head: at("Reports", v("x"), v("z")), body: []atom{at("Mgr", v("x"), v("y")), at("Reports", v("y"), v("z"))}},
	}}
	for _, k := range []int{6, 12, 18} {
		var fs []fact
		for i := 1; i <= k; i++ {
			fs = append(fs, fact{"Emp", []int64{int64(i)}})
			if i%3 != 0 && i < k {
				fs = append(fs, fact{"Mgr", []int64{int64(i), int64(i + 1)}})
			}
		}
		cases = append(cases, tgdCase{kind: opChase, p1: reports, facts: fs,
			tgds:    []string{"Emp(x) -> Mgr(x, m).", "Mgr(x, m) -> Boss(m)."},
			wantLen: reportsModelSize(k)})
	}
	return cases
}

// reportsModelSize is the direct model of the `reports` chase: Emp(1..k),
// Mgr(i, i+1) unless 3 | i or i = k; each employee left without a manager
// gets a fresh null as one; Boss holds every manager; Reports is the
// closure of Mgr.
func reportsModelSize(k int) int {
	next := make(map[int]int) // employee → manager; nulls are negative
	for i := 1; i <= k; i++ {
		if i%3 != 0 && i < k {
			next[i] = i + 1
		} else {
			next[i] = -i
		}
	}
	bosses := make(map[int]bool)
	reports := 0
	for i := 1; i <= k; i++ {
		bosses[next[i]] = true
		for m, ok := next[i]; ok; m, ok = next[m] {
			reports++
		}
	}
	return k + len(next) + len(bosses) + reports
}

// optOp is one operation of the sequence, fully rendered to source text.
type optOp struct {
	kind     optKind
	id       int
	hot      bool
	src      string // program (+ tgds, + facts) handed to core.Parse
	src2     string // second program of equiv / sat
	query    string // pipeline: a one-rule source whose body is the query atom
	base     program
	bloated  program
	qatom    atom
	injected int
	wantEq   bool
	tgd      *tgdCase
	sampled  bool // checked by naive evaluation after the measured section

	// results, filled by run
	removed int
	got     program      // minimized / rewritten program
	seed    fact         // pipeline: the magic seed fact
	gotQ    atom         // pipeline: the adorned query atom
	verdict core.Verdict // sat / preserve
}

// optimizeOps renders the operation sequence for a seed. epoch separates
// the predicate spaces of two passes of one process (the traced run's
// second pass must not find the first one's "never seen" programs cached).
func optimizeOps(seed uint64, n, epoch int) []optOp {
	pool := optimizePool()
	cases := tgdCases()
	rg := newRNG(seed, "optimize-ops")
	space := fmt.Sprintf("s%de%d", seed, epoch) // the seed's own predicate space
	ops := make([]optOp, n)
	var perKind [optKinds]int
	tgdN := 0
	for i := range ops {
		kind := optPattern[i%len(optPattern)]
		op := optOp{id: i + 1}
		varSuffix := "_" + strconv.Itoa(rg.intn(1000))
		if kind >= opSAT {
			tc := &cases[tgdN%len(cases)]
			tgdN++
			kind = tc.kind
			op.tgd = tc
			// Half the tgd stream is never-seen too.
			predSuffix := ""
			if tgdN%2 == 0 {
				predSuffix = "T" + strconv.Itoa(i) + space
			}
			var sb strings.Builder
			sb.WriteString(tc.p1.renamed(predSuffix, varSuffix).String())
			for _, t := range tc.tgds {
				sb.WriteString(renameTGD(t, predSuffix))
				sb.WriteByte('\n')
			}
			for _, f := range tc.facts {
				f.pred += predSuffix
				sb.WriteString(f.String())
				sb.WriteByte('\n')
			}
			op.src = sb.String()
			if kind == opSAT {
				op.src2 = tc.p2.renamed(predSuffix, varSuffix).String()
			}
		} else {
			j := perKind[kind]
			perKind[kind]++
			spec := pool[(j/2)%len(pool)]
			op.hot = j%2 == 0
			predSuffix := "H" + strconv.Itoa((j/2)%len(pool))
			if !op.hot {
				predSuffix = "U" + strconv.Itoa(i) + space
			}
			op.base = spec.tpl.prog.renamed(predSuffix, varSuffix)
			op.bloated = spec.bloated.renamed(predSuffix, varSuffix)
			op.injected = spec.injected
			op.src = op.bloated.String()
			switch kind {
			case opMinimize:
				// Every hot spec is verified once; of the never-seen ops, 1 in 8.
				op.sampled = (op.hot && j/2 < len(pool)) || (!op.hot && j%16 == 1)
			case opEquiv:
				// Alternate a true pair (base vs. bloated) with a false one
				// (base minus an essential rule), where one is known.
				op.wantEq = (j/2)%2 == 0 || spec.tpl.essential < 0
				if op.wantEq {
					op.src2 = op.base.String()
				} else {
					cut := op.base.clone()
					e := spec.tpl.essential
					cut.rules = append(cut.rules[:e:e], cut.rules[e+1:]...)
					op.src, op.src2 = op.base.String(), cut.String()
				}
			case opPipeline:
				op.qatom = spec.tpl.query.renamed(predSuffix, varSuffix)
				op.query = "Q__(1) :- " + op.qatom.String() + "."
				op.sampled = j%4 < 2
			}
		}
		op.kind = kind
		ops[i] = op
	}
	// The order is structural, so every seed meets the caches in the same
	// state; the seed renames variables and never-seen predicates.
	newRNG(structSeed, "optimize-order").shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// renameTGD suffixes every predicate of a tgd source line. Predicates are
// the capitalized identifiers followed by '('.
func renameTGD(src, suffix string) string {
	if suffix == "" {
		return src
	}
	return strings.ReplaceAll(src, "(", suffix+"(")
}

// run executes one operation. With a tracer it calls the stages itself
// and records a span around each layer's public entry point.
func (op *optOp) run(tr *tracer) error {
	h := tr.begin(0, op.id, "parser", "parse")
	res, err := core.Parse(op.src)
	tr.end(h)
	if err != nil {
		return err
	}
	switch op.kind {
	case opMinimize:
		h := tr.begin(0, op.id, "minimize", "minimize.program")
		min, trace, err := core.MinimizeProgram(res.Program, core.MinimizeOptions{})
		tr.end(h)
		if err != nil {
			return err
		}
		op.removed = trace.AtomsRemoved() + trace.RulesRemoved()
		if op.sampled {
			op.got = fromCoreProgram(min)
		}
	case opEquiv:
		h := tr.begin(0, op.id, "parser", "parse")
		p2, err := core.ParseProgram(op.src2)
		tr.end(h)
		if err != nil {
			return err
		}
		h = tr.begin(0, op.id, "chase", "chase.equivalent")
		eq, err := core.UniformlyEquivalent(res.Program, p2)
		tr.end(h)
		if err != nil {
			return err
		}
		if eq != op.wantEq {
			return fmt.Errorf("UniformlyEquivalent = %v, want %v", eq, op.wantEq)
		}
	case opPipeline:
		h := tr.begin(0, op.id, "parser", "parse")
		qr, err := core.ParseProgram(op.query)
		tr.end(h)
		if err != nil {
			return err
		}
		q := qr.Rules[0].Body[0]
		var out *core.PipelineResult
		if tr == nil {
			out, err = core.OptimizeForQuery(res.Program, q, core.DefaultPipeline())
		} else {
			out, err = tracedPipeline(tr, op.id, res.Program, q)
		}
		if err != nil {
			return err
		}
		op.removed = out.RulesRemoved + out.AtomsRemoved
		if op.sampled {
			op.got = fromCoreProgram(out.Program)
			op.seed = fromCoreFact(out.Rewritten.Seed)
			op.gotQ = fromCoreAtom(out.Rewritten.Query)
		}
	case opSAT:
		h := tr.begin(0, op.id, "parser", "parse")
		p2, err := core.ParseProgram(op.src2)
		tr.end(h)
		if err != nil {
			return err
		}
		h = tr.begin(0, op.id, "chase", "chase.sat_models_contained")
		op.verdict, err = core.SATModelsContained(res.Program, res.TGDs, p2, core.Budget{})
		tr.end(h)
		if err != nil {
			return err
		}
	case opPreserve:
		h := tr.begin(0, op.id, "preserve", "preserve.check")
		var err error
		op.verdict, _, err = core.PreserveCheck(res.Program, res.TGDs, core.PreserveOptions{})
		tr.end(h)
		if err != nil {
			return err
		}
	case opChase:
		h := tr.begin(0, op.id, "db", "db.load")
		d := core.FromFacts(res.Facts)
		tr.end(h)
		h = tr.begin(0, op.id, "chase", "chase.embedded_chase")
		out, err := core.ChaseApply(res.Program, res.TGDs, d, core.Budget{})
		tr.end(h)
		if err != nil {
			return err
		}
		op.verdict = core.Yes
		if !out.Complete {
			op.verdict = core.Unknown
		} else if out.DB.Len() != op.tgd.wantLen {
			return fmt.Errorf("chase result has %d facts, model has %d", out.DB.Len(), op.tgd.wantLen)
		}
	}
	return nil
}

// tracedPipeline is core.OptimizeForQuery(DefaultPipeline) spelled out
// stage by stage (prune → Fig. 2 → §XI → magic) with a span per stage.
func tracedPipeline(tr *tracer, id int, p *core.Program, q core.Atom) (*core.PipelineResult, error) {
	res := &core.PipelineResult{}
	h := tr.begin(0, id, "rewrite", "rewrite.prune")
	before := len(p.Rules)
	cur := core.RemoveUnreachable(core.RemoveUnfounded(p.Clone()), q.Pred)
	res.RulesRemoved += before - len(cur.Rules)
	tr.end(h)

	h = tr.begin(0, id, "minimize", "minimize.program")
	min, trace, err := core.MinimizeProgram(cur, core.MinimizeOptions{})
	tr.end(h)
	if err != nil {
		return nil, err
	}
	res.RulesRemoved += trace.RulesRemoved()
	res.AtomsRemoved += trace.AtomsRemoved()

	h = tr.begin(0, id, "equivopt", "equivopt.optimize")
	opt, removals, err := core.EquivOptimize(min, core.EquivOptions{})
	tr.end(h)
	if err != nil {
		return nil, err
	}
	for _, r := range removals {
		res.AtomsRemoved += len(r.Atoms)
	}

	h = tr.begin(0, id, "magic", "magic.rewrite")
	rw, err := core.MagicRewrite(opt, q)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	res.Rewritten, res.Program = rw, rw.Program
	return res, nil
}

// optTotals is what a pass over the sequence adds up.
type optTotals struct {
	m        *measured
	injected int // redundant atoms + rules injected into the minimize inputs
	removed  int // of those, removed (capped per op at what was injected)
	verdicts int
	decided  int
}

// runOptimizePass executes the sequence once, timing each operation.
func runOptimizePass(ops []optOp, lane *speedLane, tr *tracer, res *runResult) optTotals {
	tot := optTotals{m: newMeasured(lane.s, 1, len(ops))}
	for i := range ops {
		op := &ops[i]
		lane.tick()
		h := tr.begin(0, op.id, "bench", "op."+optKindName[op.kind])
		t0 := time.Now()
		err := op.run(tr)
		d := time.Since(t0)
		tr.end(h)
		tot.m.add(0, t0, d, true)
		if err != nil {
			res.fail("optimize op %d (%s): %v", op.id, optKindName[op.kind], err)
			continue
		}
		switch op.kind {
		case opMinimize:
			// (A pipeline op prunes whole rules first, injected atoms and all,
			// so its removal count is not comparable; its answers are checked.)
			tot.injected += op.injected
			tot.removed += min(op.removed, op.injected)
			if op.removed < op.injected {
				res.fail("optimize op %d (%s): removed %d of %d injected redundancies", op.id, optKindName[op.kind], op.removed, op.injected)
			}
		case opSAT, opPreserve, opChase:
			tot.verdicts++
			if op.verdict != core.Unknown {
				tot.decided++
			}
			if op.kind != opChase && op.verdict != op.tgd.want {
				res.fail("optimize op %d (%s): verdict %v, want %v", op.id, optKindName[op.kind], op.verdict, op.tgd.want)
			}
		}
	}
	return tot
}

// verifyOptimize checks the sampled results by naive evaluation: a
// minimized program must agree with its un-bloated base on random
// databases over every predicate (uniform equivalence quantifies over IDB
// facts too); a rewritten program must return the base's answers to the
// query on random EDBs plus the magic seed.
func verifyOptimize(ops []optOp, res *runResult) int {
	checked := 0
	for i := range ops {
		op := &ops[i]
		if !op.sampled || op.got.rules == nil {
			continue
		}
		checked++
		arity, idb := op.base.preds()
		rg := newRNG(structSeed, "verify-"+strconv.Itoa(op.id))
		var all, edb []string
		for _, p := range sortedKeys(arity) {
			all = append(all, p)
			if !idb[p] {
				edb = append(edb, p)
			}
		}
		for k := 0; k < 3; k++ {
			switch op.kind {
			case opMinimize:
				in := randomEDB(rg, arity, all, 4, 5)
				want, got := naiveEval(op.base, in), naiveEval(op.got, in)
				if !want.equalOn(got, all) || want.len() != got.len() {
					res.fail("optimize op %d: minimized program differs from its base on EDB %d", op.id, k)
				}
			case opPipeline:
				in := randomEDB(rg, arity, edb, 4, 6)
				want := answers(naiveEval(op.base, in), op.qatom)
				in.add(op.seed.pred, op.seed.args)
				got := answers(naiveEval(op.got, in), op.gotQ)
				if strings.Join(want, ";") != strings.Join(got, ";") {
					res.fail("optimize op %d: rewritten program answers %v, base answers %v", op.id, got, want)
				}
			}
		}
	}
	return checked
}

func runOptimize(cfg config, spec *benchSpec) (*runResult, error) {
	res := newResult(spec, cfg)
	n := max(60, int(cfg.seconds*optimizeOpsPerSecond))
	if cfg.trace {
		n /= 2 // the traced run makes two passes
	}
	lane := newSpeedometer().lane()
	baseline := heapLive()

	var ops []optOp
	setup, err := medianSetup(cfg.setupReps(), lane, func(rep int) error {
		ops = optimizeOps(cfg.seed, n, 0)
		// Warm-up: one operation of every hot spec and every tgd case, so the
		// measured section starts with the hot set cached.
		warm := optimizeOps(cfg.seed^0x77, min(240, max(40, n/4)), 9)
		for i := range warm {
			if warm[i].hot || warm[i].tgd != nil {
				if err := warm[i].run(nil); err != nil {
					return fmt.Errorf("warm-up op %s: %w", optKindName[warm[i].kind], err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var srcs []string
	for i := range ops {
		srcs = append(srcs, ops[i].src, ops[i].src2, ops[i].query)
	}
	res.Digests["optimize.inputs"] = sha(srcs...)

	cache0 := core.PlanCacheStats()
	runtime.GC()
	tot := runOptimizePass(ops, lane, nil, res)
	sec := tot.m.finish()
	cache1 := core.PlanCacheStats()
	live := liveSince(baseline)
	res.Attempted = len(ops)
	checked := verifyOptimize(ops, res)

	res.setEndToEnd(setup, sec, live)
	res.Detail["ops"] = len(ops)
	res.Detail["oracle_checked"] = checked
	res.Detail["removed"] = fmt.Sprintf("%d/%d", tot.removed, tot.injected)
	res.Detail["decided"] = fmt.Sprintf("%d/%d", tot.decided, tot.verdicts)
	// The output digest holds what is invariant under a correct refactor —
	// how much each op removed and each verdict — not the program text,
	// which may legitimately depend on the order deletions are tried in.
	var outs []string
	for i := range ops {
		outs = append(outs, strconv.Itoa(min(ops[i].removed, ops[i].injected)), ops[i].verdict.String())
	}
	res.Digests["optimize.outputs"] = sha(outs...)

	if cfg.trace {
		// The traced pass: same structure, a fresh predicate space.
		tr := newTracer(lane.s)
		tops := optimizeOps(cfg.seed, n, 1)
		runtime.GC()
		h := tr.begin(0, 0, "bench", "measured")
		ttot := runOptimizePass(tops, lane, tr, res)
		tsec := ttot.m.finish()
		probeOptimize(tr, tops, res)
		tr.end(h)
		res.Attempted += len(tops)
		verifyOptimize(tops, res)
		res.set("bench.trace_overhead_share", tsec.wall/sec.wall-1)
		res.set("minimize.removed_share", ratio(float64(ttot.removed), float64(ttot.injected)))
		res.set("chase.decided_share", ratio(float64(ttot.decided), float64(ttot.verdicts)))
		res.set("chase.unknown_share", 1-ratio(float64(ttot.decided), float64(ttot.verdicts)))
		lookups := float64(cache1.Hits - cache0.Hits + cache1.Misses - cache0.Misses)
		res.set("eval.plan_cache_hit_ratio", ratio(float64(cache1.Hits-cache0.Hits), lookups))
		res.setSpanMetrics(tr)
		res.set("minimize.program_us", median(tr.durations("minimize.program"))*1e6)
		res.set("equivopt.optimize_us", median(tr.durations("equivopt.optimize"))*1e6)
		res.set("preserve.check_us", median(tr.durations("preserve.check"))*1e6)
		res.set("magic.rewrite_us", median(tr.durations("magic.rewrite"))*1e6)
		res.set("chase.embedded_chase_ms", median(tr.durations("chase.embedded_chase"))*1e3)
		res.set("parser.parse_mb_per_s", parseRate(tr, tops))
		if err := cfg.writeTrace(tr); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

// parseRate is source bytes parsed ÷ time inside parse spans.
func parseRate(tr *tracer, ops []optOp) float64 {
	bytes := 0
	for i := range ops {
		bytes += len(ops[i].src) + len(ops[i].src2) + len(ops[i].query)
	}
	var t float64
	for _, d := range tr.durations("parse") {
		t += d
	}
	return ratio(float64(bytes)/(1<<20), t)
}

// probeOptimize takes the per-layer numbers no operation of the mix
// isolates, on a 1-in-16 sample of the never-seen operations: canonical
// form, static analysis, termination classification, cold and warm
// prepare, session open, one containment test, and the paper's claim
// itself — evaluation of the minimized program against its bloated input.
func probeOptimize(tr *tracer, ops []optOp, res *runResult) {
	ctx := context.Background()
	var speedups, magicRatios, reused, subsumed, overheads []float64
	probed, rules := 0, 0
	for i := range ops {
		op := &ops[i]
		if op.hot || op.tgd != nil || op.kind == opEquiv {
			continue
		}
		if probed++; probed%16 != 1 {
			continue
		}
		id := op.id
		// A predicate space no earlier call has touched, so "cold" is cold.
		probe := op.bloated.renamed("p", "")
		pr, err := core.Parse(probe.String())
		if err != nil {
			res.fail("probe parse: %v", err)
			continue
		}
		p := pr.Program

		h := tr.begin(0, id, "ast", "ast.canonical")
		_ = p.CanonicalString()
		tr.end(h)
		rules += len(p.Rules)

		h = tr.begin(0, id, "analysis", "analysis.vet")
		_ = core.Analyze(pr)
		tr.end(h)

		h = tr.begin(0, id, "depgraph", "depgraph.classify")
		_ = core.ClassifyTGDs(p, pr.TGDs)
		tr.end(h)

		h = tr.begin(0, id, "eval", "eval.prepare_cold")
		_, err = core.PrepareEval(p, core.EvalOptions{})
		tr.end(h)
		if err != nil {
			res.fail("probe prepare: %v", err)
			continue
		}
		h = tr.begin(0, id, "eval", "eval.prepare_warm")
		prep, _ := core.PrepareEval(p, core.EvalOptions{})
		tr.end(h)

		bp, err := core.ParseProgram(op.base.renamed("q", "").String())
		if err != nil {
			res.fail("probe parse: %v", err)
			continue
		}
		h = tr.begin(0, id, "core", "core.session_open_cold")
		sess, err := core.NewSession(bp)
		tr.end(h)
		if err != nil {
			res.fail("probe session: %v", err)
			continue
		}

		h = tr.begin(0, id, "chase", "chase.contains_rule")
		ck, err := core.NewContainmentChecker(p)
		if err == nil {
			_, err = ck.ContainsRule(p.Rules[len(p.Rules)-1])
		}
		tr.end(h)
		if err != nil {
			res.fail("probe contains: %v", err)
		}

		// The paper's claim: the minimized program evaluates no slower.
		min, trace, err := core.MinimizeProgram(p, core.MinimizeOptions{})
		if err != nil {
			res.fail("probe minimize: %v", err)
			continue
		}
		st := trace.Stats
		if v := float64(st.VerdictsReused + st.VerdictsRecomputed + st.VerdictsSubsumed); v > 0 {
			reused = append(reused, float64(st.VerdictsReused)/v)
			subsumed = append(subsumed, float64(st.VerdictsSubsumed)/v)
		}
		arity, idb := probe.preds()
		var edb []string
		for _, name := range sortedKeys(arity) {
			if !idb[name] {
				edb = append(edb, name)
			}
		}
		in := randomEDB(newRNG(structSeed, "speedup"), arity, edb, 10, 20)
		var facts []fact
		for _, name := range edb {
			for _, row := range in.rows[name] {
				facts = append(facts, fact{name, row})
			}
		}
		input := core.FromFacts(toCoreFacts(facts)).Freeze().DB()
		minPrep, err := core.PrepareEval(min, core.EvalOptions{})
		if err != nil {
			res.fail("probe prepare minimized: %v", err)
			continue
		}
		h = tr.begin(0, id, "eval", "eval.speedup_probe")
		tIn := bestOf(2, func() { _, _, _ = prep.Eval(input) })
		tMin := bestOf(2, func() { _, _, _ = minPrep.Eval(input) })
		tr.end(h)
		speedups = append(speedups, ratio(tIn, tMin))

		// Session.Eval against Prepared.Eval on the same input.
		h = tr.begin(0, id, "core", "core.session_eval_probe")
		tSess := bestOf(3, func() { _, _, _ = sess.Eval(ctx, input) })
		tPrep := bestOf(3, func() { _, _, _ = sess.Prepared().Eval(input) })
		tr.end(h)
		overheads = append(overheads, (tSess-tPrep)*1e6)

		if op.kind == opPipeline {
			qr, err := core.ParseProgram("Q__(1) :- " + op.qatom.renamed("p", "").String() + ".")
			if err != nil {
				res.fail("probe query: %v", err)
				continue
			}
			q := qr.Rules[0].Body[0]
			h = tr.begin(0, id, "magic", "magic.answer_probe")
			_, ms, err1 := core.MagicAnswer(p, input, q, core.EvalOptions{})
			_, ds, err2 := core.DirectAnswer(p, input, q, core.EvalOptions{})
			tr.end(h)
			if err1 != nil || err2 != nil {
				res.fail("probe magic: %v %v", err1, err2)
				continue
			}
			magicRatios = append(magicRatios, ratio(float64(ms.DerivedFacts), float64(ds.DerivedFacts)))
		}
	}
	var canon float64
	for _, d := range tr.durations("ast.canonical") {
		canon += d
	}
	res.set("ast.canonical_us_per_rule", ratio(canon*1e6, float64(rules)))
	res.set("analysis.vet_us_per_program", median(tr.durations("analysis.vet"))*1e6)
	res.set("depgraph.classify_us_per_program", median(tr.durations("depgraph.classify"))*1e6)
	res.set("eval.prepare_cold_us", median(tr.durations("eval.prepare_cold"))*1e6)
	res.set("eval.prepare_warm_us", median(tr.durations("eval.prepare_warm"))*1e6)
	res.set("core.session_open_cold_us", median(tr.durations("core.session_open_cold"))*1e6)
	res.set("chase.contains_rule_us", median(tr.durations("chase.contains_rule"))*1e6)
	res.set("chase.verdict_reused_ratio", median(reused))
	res.set("chase.subsumed_ratio", median(subsumed))
	res.set("minimize.eval_speedup", median(speedups))
	res.set("magic.derived_ratio", median(magicRatios))
	res.set("core.session_eval_overhead_us", median(overheads))
}
