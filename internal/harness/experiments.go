package harness

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/workload"
)

// Experiments lists every experiment, in order, by its table's id.
var Experiments = []struct {
	ID  string
	Run func() Table
}{
	{"E1", E1WorkedExamples}, {"E2", E2UniformContainment}, {"E3", E3MinimizeRule},
	{"E4", E4MinimizeProgram}, {"E5", E5EvalSpeedup}, {"E6", E6NaiveVsSemiNaive},
	{"E7", E7EquivOpt}, {"E8", E8MagicComposition}, {"E9", E9EmbeddedChase},
	{"E11", E11Engines}, {"E12", E12Incremental}, {"E14", E14SIPS},
	{"E15", E15DerivationCounts},
}

// All runs every experiment and returns the tables in order.
func All() []Table {
	tables := make([]Table, len(Experiments))
	for i, e := range Experiments {
		tables[i] = e.Run()
	}
	return tables
}

// freshCount numbers fresh's renamings.
var freshCount atomic.Int64

// fresh returns a renaming of the predicates of pure rules apart from
// anything this process has seen before the call: rules renamed by it find
// nothing in the process-wide plan and verdict caches but what other rules
// renamed by it left there. A table whose columns count cache hits renames
// its inputs by one such renaming, so they read what the table's rows do to
// each other, whatever ran before the table.
func fresh() func(rules ...ast.Rule) []ast.Rule {
	suffix := fmt.Sprintf("_%d", freshCount.Add(1))
	return func(rules ...ast.Rule) []ast.Rule {
		out := ast.NewProgram(rules...).Clone().Rules
		for i := range out {
			out[i].Head.Pred += suffix
			for k := range out[i].Body {
				out[i].Body[k].Pred += suffix
			}
		}
		return out
	}
}

// must and must2 return a call's results and panic on its error: every
// input of an experiment is fixed, so an error is a defect.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func must2[T, U any](v T, u U, err error) (T, U) {
	return must(v, err), u
}

// check is one E1 assertion.
type check struct {
	name    string
	section string
	claim   string
	run     func() bool
}

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

// E1WorkedExamples re-executes every worked example of the paper and
// asserts its stated outcome.
func E1WorkedExamples() Table {
	t := Table{ID: "E1", Title: "worked-example regression (paper Examples 2-19)",
		Columns: []string{"example", "section", "claim", "result"}}

	tc := workload.TransitiveClosure()
	tcLinear := workload.TransitiveClosureLinear()
	tcGuarded := workload.TransitiveClosureGuarded()
	tgd := parser.MustParseTGD("G(x, z) -> A(x, w).")

	checks := []check{
		{"Ex. 2", "III", "bottom-up output of TC on {A(1,2),A(1,4),A(4,1)}", func() bool {
			out := eval.MustEval(tc, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)}))
			want := db.FromFacts([]ast.GroundAtom{
				ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1),
				ga("G", 1, 2), ga("G", 1, 4), ga("G", 4, 1),
				ga("G", 1, 1), ga("G", 4, 4), ga("G", 4, 2)})
			return out.Equal(want)
		}},
		{"Ex. 3", "III", "IDB atoms accepted as input (uniform semantics)", func() bool {
			out := eval.MustEval(tc, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("G", 4, 1)}))
			return out.Has(ga("G", 4, 2)) && !out.Has(ga("A", 4, 1))
		}},
		{"Ex. 4", "IV", "equivalence without uniform equivalence (TC variants)", func() bool {
			eq, err := chase.UniformlyEquivalent(tc, tcLinear)
			return err == nil && !eq
		}},
		{"Ex. 5", "IV", "adding a rule uniformly contains the original", func() bool {
			p2 := parser.MustParseProgram(`
				G(x, z) :- A(x, z).
				G(x, z) :- G(x, y), G(y, z).
				A(x, z) :- A(x, y), G(y, z).`)
			ok, _, err := chase.UniformlyContains(p2, tc)
			return err == nil && ok
		}},
		{"Ex. 6", "VI", "P2 ⊑ᵘ P1 proved, P1 ⊑ᵘ P2 refuted by the chase", func() bool {
			ok1, _, err1 := chase.UniformlyContains(tc, tcLinear)
			ok2, _, err2 := chase.UniformlyContains(tcLinear, tc)
			return err1 == nil && err2 == nil && ok1 && !ok2
		}},
		{"Ex. 7/8", "VI-VII", "A(w,y) redundant in the 5-atom rule (Fig. 1)", func() bool {
			r := parser.MustParseProgram(`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`).Rules[0]
			min, trace, err := minimize.Rule(context.Background(), r, minimize.Options{})
			return err == nil && trace.AtomsRemoved() == 1 && len(min.Body) == 4
		}},
		{"Ex. 9", "VIII", "tgd satisfaction over the Example 2 DB", func() bool {
			d := eval.MustEval(tc, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)}))
			bad := parser.MustParseTGD("G(x, y) -> A(y, z), A(z, x).")
			good := parser.MustParseTGD("G(x, y) -> G(x, z), A(z, y).")
			return !chase.Satisfies(d, []ast.TGD{bad}) && chase.Satisfies(d, []ast.TGD{good})
		}},
		{"Ex. 10", "VIII", "a full tgd behaves as two rules", func() bool {
			full := parser.MustParseTGD("A(x, y, z), B(w, y, v) -> A(x, y, v), T(w, y, z).")
			return full.IsFull() && len(full.AsRules()) == 2
		}},
		{"Ex. 11", "VIII", "SAT(T) ∩ M(P1) ⊆ M(P2) via the extended chase", func() bool {
			v, err := chase.SATModelsContained(tcGuarded, []ast.TGD{tgd}, tc, chase.Budget{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 12", "IX", "Pⁿ(d) vs P(d) on {A(1,2),G(2,3),G(3,4)}", func() bool {
			d := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("G", 2, 3), ga("G", 3, 4)})
			pn := eval.NonRecursive(tc, d)
			return pn.Equal(db.FromFacts([]ast.GroundAtom{ga("G", 1, 2), ga("G", 2, 4)}))
		}},
		{"Ex. 13/14", "IX", "P1 preserves G(x,z)→A(x,w) non-recursively (Fig. 3)", func() bool {
			v, _, err := preserve.Check(tcGuarded, []ast.TGD{tgd}, preserve.Options{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 15", "IX", "two-atom-LHS tgd preserved (all 4 combinations)", func() bool {
			r := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z), A(y, w).`)
			v, _, err := preserve.Check(r, []ast.TGD{parser.MustParseTGD("G(x, y), G(y, z) -> A(y, w).")}, preserve.Options{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 16", "IX", "Example 19's recursive rule preserves its tgd", func() bool {
			r := parser.MustParseProgram(`G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).`)
			v, _, err := preserve.Check(r, []ast.TGD{parser.MustParseTGD("G(y, z) -> G(y, w), C(w).")}, preserve.Options{})
			return err == nil && v == chase.Yes
		}},
		{"Ex. 17", "X", "preliminary DB of TC over a 3-chain", func() bool {
			prelim := eval.PreliminaryDB(tc, workload.Chain("A", 3))
			return prelim.Len() == 6 && prelim.Has(ga("G", 0, 1)) && !prelim.Has(ga("G", 0, 2))
		}},
		{"Ex. 18", "X-XI", "A(y,w) removed under equivalence (full pipeline)", func() bool {
			opt, removals, err := equivopt.Optimize(context.Background(), tcGuarded, equivopt.Options{})
			return err == nil && len(removals) == 1 && opt.Equal(tc)
		}},
		{"Ex. 19", "XI", "G(y,w), C(w) removed under equivalence", func() bool {
			opt, removals, err := equivopt.Optimize(context.Background(), workload.Example19Program(), equivopt.Options{})
			want := parser.MustParseProgram(`
				G(x, z) :- A(x, z), C(z).
				G(x, z) :- A(x, y), G(y, z).`)
			return err == nil && len(removals) >= 1 && opt.Equal(want)
		}},
	}

	for _, c := range checks {
		result := "PASS"
		if !c.run() {
			result = "FAIL"
		}
		t.AddRow(c.name, c.section, c.claim, result)
	}
	return t
}

// E2UniformContainment measures the cost of the Section VI decision
// procedure as program size grows: layered self-containment (one verdict per
// rule, decided syntactically by the θ-subsumption fast path) plus the fully
// unfolded top layer Pn(x,z) :- E,…,E — uniformly contained but subsumed by
// no single rule, so it forces a real frozen-body chase whose goal-directed
// evaluation rides the streaming pipeline. The streamed/materialized column
// is the planner's per-stratum decision tally across the session, run in
// one renaming (fresh); the timed op, repeated, finds its plan and verdicts
// cached.
func E2UniformContainment() Table {
	t := Table{ID: "E2", Title: "uniform-containment decision cost vs program size (Section VI)",
		Bench:   "BenchmarkE2_UniformContainment",
		Columns: []string{"layers", "rules", "body atoms", "decision", "strata strm/mat", "time (warm)"}}
	rename := fresh()
	for _, n := range []int{2, 4, 8, 16, 24} {
		rules := rename(append(workload.Layered(n).Rules, unfoldedLayer(n))...)
		p, unfolded := ast.NewProgram(rules[:n]...), rules[n]
		var ok bool
		var st eval.Stats
		cell := t.Timed(Op{Name: fmt.Sprintf("layers-%d", n), Run: func() {
			// One session: the containing program is prepared once and
			// every rule is tested against it.
			ck := must(chase.NewChecker(p))
			self, _ := must2(ck.Contains(context.Background(), p))
			chased := must(ck.ContainsRule(context.Background(), unfolded))
			ok, st = self && chased, ck.Stats()
		}})
		t.AddRow(n, len(p.Rules), p.BodyAtomCount(), fmt.Sprint(ok),
			fmt.Sprintf("%d/%d", st.StrataStreamed, st.StrataMaterialized), cell)
	}
	return t
}

// unfoldedLayer builds Pn(x, z) :- E(x, y1), …, E(yn-1, z): the n-layer rule
// unfolded down to the EDB. It is uniformly contained in workload.Layered(n)
// but θ-subsumed by none of its rules.
func unfoldedLayer(n int) ast.Rule {
	var sb strings.Builder
	fmt.Fprintf(&sb, "P%d(x0, x%d) :- ", n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "E(x%d, x%d)", i, i+1)
	}
	sb.WriteString(".")
	return parser.MustParseProgram(sb.String()).Rules[0]
}

// E3MinimizeRule measures Fig. 1 on rules with k injected redundant atoms.
// The cache columns count the table's rows run in order in one renaming
// (fresh); the timed op, repeated, finds its plan and verdicts cached.
func E3MinimizeRule() Table {
	t := Table{ID: "E3", Title: "rule minimization (Fig. 1) vs injected redundancy", Bench: "BenchmarkE3_MinimizeRule",
		Columns: []string{"injected k", "body before", "body after", "atoms removed", "plan hit/miss", "verdicts memo/syn/chase", "strata strm/mat", "time (warm)"}}
	base := workload.TransitiveClosure().Rules[1]
	rename := fresh()
	for _, k := range []int{0, 1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(k) + 1))
		r := rename(workload.InjectRedundantAtoms(base, k, rng))[0]
		var min ast.Rule
		var trace minimize.Trace
		cell := t.Timed(Op{Name: fmt.Sprintf("k-%d", k), Run: func() {
			min, trace = must2(minimize.Rule(context.Background(), r, minimize.Options{}))
		}})
		t.AddRow(k, len(r.Body), len(min.Body), trace.AtomsRemoved(),
			fmt.Sprintf("%d/%d", trace.Stats.PrepareHits, trace.Stats.PrepareMisses),
			fmt.Sprintf("%d/%d/%d", trace.Stats.VerdictsReused, trace.Stats.VerdictsSubsumed, trace.Stats.VerdictsRecomputed),
			fmt.Sprintf("%d/%d", trace.Stats.StrataStreamed, trace.Stats.StrataMaterialized), cell)
	}
	return t
}

// E4MinimizeProgram measures Fig. 2 on programs with injected redundant
// rules and atoms. The cache columns count the table's rows run in order in
// one renaming (fresh). The warm op, repeated, finds every plan and verdict
// cached; the cold op minimizes a copy renamed apart from everything before
// it, so every plan and verdict the Fig. 2 loop asks for is paid.
func E4MinimizeProgram() Table {
	t := Table{ID: "E4", Title: "program minimization (Fig. 2) vs injected redundant rules", Bench: "BenchmarkE4_MinimizeProgram",
		Columns: []string{"injected rules", "rules before/after", "atoms before/after", "removed (rules/atoms)", "plan hit/miss", "verdicts memo/syn/chase", "time (warm)", "time (cold)"}}
	rename := fresh()
	ks, inputs := []int{0, 2, 4, 8}, []*ast.Program{}
	for _, k := range ks {
		rng := rand.New(rand.NewSource(int64(k) + 11))
		p := workload.InjectRedundantRules(workload.TransitiveClosure(), k, rng)
		q := ast.NewProgram(rename(p.Rules...)...)
		var min *ast.Program
		var trace minimize.Trace
		warm := t.Timed(Op{Name: fmt.Sprintf("rules-%d", k), Run: func() {
			min, trace = must2(minimize.Program(context.Background(), q, minimize.Options{}))
		}})
		t.AddRow(k,
			fmt.Sprintf("%d/%d", len(p.Rules), len(min.Rules)),
			fmt.Sprintf("%d/%d", p.BodyAtomCount(), min.BodyAtomCount()),
			fmt.Sprintf("%d/%d", trace.RulesRemoved(), trace.AtomsRemoved()),
			fmt.Sprintf("%d/%d", trace.Stats.PrepareHits, trace.Stats.PrepareMisses),
			fmt.Sprintf("%d/%d/%d", trace.Stats.VerdictsReused, trace.Stats.VerdictsSubsumed, trace.Stats.VerdictsRecomputed),
			warm)
		inputs = append(inputs, p)
	}
	// The cold ops come after every warm one: the thousands of programs a
	// cold row leaves in the caches would slow the warm rows after it.
	for i, p := range inputs {
		var q *ast.Program
		t.Rows[i][7] = t.Timed(Op{Name: fmt.Sprintf("rules-%d-cold", ks[i]),
			Reset: func() { q = ast.NewProgram(fresh()(p.Rules...)...) },
			Run:   func() { must2(minimize.Program(context.Background(), q, minimize.Options{})) }})
	}
	return t
}

// edb is one named input database of a table; slug names it in the
// table's sub-benchmarks.
type edb struct {
	name, slug string
	d          *db.Database
}

// E5EvalSpeedup measures the paper's core claim: removing redundant parts
// reduces evaluation work. The bloated program carries injected redundant
// atoms plus the Example 11 guard; the optimized program is its Fig. 2 +
// Section XI reduction.
func E5EvalSpeedup() Table {
	t := Table{ID: "E5", Title: "evaluation speedup from minimization (Sections I, V)", Bench: "BenchmarkE5_EvalSpeedup",
		Columns: []string{"EDB", "facts", "firings bloat", "firings opt", "time bloat", "time opt"}}

	rng := rand.New(rand.NewSource(1))
	bloated := workload.TransitiveClosureGuarded()
	bloated = bloated.ReplaceRule(1, workload.InjectRedundantAtoms(bloated.Rules[1], 2, rng))
	min, _ := must2(minimize.Program(context.Background(), bloated, minimize.Options{}))
	opt, _ := must2(equivopt.Optimize(context.Background(), min, equivopt.Options{}))

	for _, e := range []edb{
		{"chain n=48", "chain-48", workload.Chain("A", 48)},
		{"random n=60 m=120", "random-60", workload.RandomDigraph("A", 60, 120, 7)},
		{"tree f=2 d=6", "tree-2-6", workload.Tree("A", 2, 6)},
		{"grid 8x8", "grid-8x8", workload.Grid("A", 8, 8)},
	} {
		var sBloat, sOpt eval.Stats
		cBloat := t.Timed(Op{Name: "bloated/" + e.slug, Run: func() { _, sBloat = must2(eval.Eval(bloated, e.d)) }})
		cOpt := t.Timed(Op{Name: "optimized/" + e.slug, Run: func() { _, sOpt = must2(eval.Eval(opt, e.d)) }})
		t.AddRow(e.name, e.d.Len(), sBloat.Firings, sOpt.Firings, cBloat, cOpt)
	}
	return t
}

// NaiveFixpoint is the Section III computation read literally: apply the
// one-step operator Pⁿ (Section IX) to everything derived so far until it
// yields nothing new. It returns P(d) and the number of applications.
func NaiveFixpoint(p *ast.Program, d *db.Database) (*db.Database, int) {
	prep := must(eval.Prepare(p))
	out := d.Clone()
	for rounds := 1; ; rounds++ {
		before := out.Len()
		out.AddAll(prep.NonRecursive(out))
		if out.Len() == before {
			return out, rounds
		}
	}
}

// E6NaiveVsSemiNaive validates the evaluation substrate: the semi-naive
// engine computes the closure the naive iteration of Section III computes,
// without re-deriving everything every round.
func E6NaiveVsSemiNaive() Table {
	t := Table{ID: "E6", Title: "naive vs semi-naive fixpoint (Section III substrate)", Bench: "BenchmarkE6_NaiveVsSemiNaive",
		Columns: []string{"EDB", "facts out", "rounds naive", "rounds semi", "firings semi", "time naive", "time semi"}}
	p := workload.TransitiveClosure()
	for _, e := range []edb{
		{"chain n=24", "chain-24", workload.Chain("A", 24)},
		{"chain n=48", "chain-48", workload.Chain("A", 48)},
		{"cycle n=24", "cycle-24", workload.Cycle("A", 24)},
		{"random n=40 m=80", "random-40", workload.RandomDigraph("A", 40, 80, 3)},
	} {
		var naive, semi *db.Database
		var naiveRounds int
		var sSemi eval.Stats
		cNaive := t.Timed(Op{Name: "naive/" + e.slug, Run: func() { naive, naiveRounds = NaiveFixpoint(p, e.d) }})
		cSemi := t.Timed(Op{Name: "seminaive/" + e.slug, Run: func() { semi, sSemi = must2(eval.Eval(p, e.d)) }})
		if !semi.Equal(naive) {
			panic("E6: semi-naive output differs from the naive iteration")
		}
		t.AddRow(e.name, naive.Len(), naiveRounds, sSemi.Rounds, sSemi.Firings, cNaive, cSemi)
	}
	return t
}

// E7EquivOpt measures the Section XI pipeline: candidates generated,
// removals performed, and cost, including a negative control where the
// pipeline must refuse.
func E7EquivOpt() Table {
	t := Table{ID: "E7", Title: "equivalence-optimization pipeline (Sections X-XI)", Bench: "BenchmarkE7_EquivOpt",
		Columns: []string{"program", "candidates", "atoms removed", "sound", "time"}}
	cases := []struct {
		name, slug string
		p          *ast.Program
		// mustRemove is the exact number of atoms that should go.
		mustRemove int
	}{
		{"Ex.11 guarded TC", "ex11", workload.TransitiveClosureGuarded(), 1},
		{"Ex.19 program", "ex19", workload.Example19Program(), 2},
		{"negative control (B init)", "negative-control", parser.MustParseProgram(`
			G(x, z) :- B(x, z).
			G(x, z) :- G(x, y), G(y, z), A(y, w).`), 0},
	}
	for _, c := range cases {
		nCands := 0
		for _, r := range c.p.Rules {
			nCands += len(equivopt.Candidates(r, 3))
		}
		var removals []equivopt.Removal
		var opt *ast.Program
		cell := t.Timed(Op{Name: c.slug, Run: func() {
			opt, removals = must2(equivopt.Optimize(context.Background(), c.p, equivopt.Options{}))
		}})
		removed := 0
		for _, r := range removals {
			removed += len(r.Atoms)
		}
		t.AddRow(c.name, nCands, fmt.Sprintf("%d (want %d)", removed, c.mustRemove), equivalentOnSamples(c.p, opt), cell)
	}
	return t
}

// equivalentOnSamples samples random EDBs and compares outputs.
func equivalentOnSamples(p1, p2 *ast.Program) bool {
	rng := rand.New(rand.NewSource(99))
	idb := p1.IDBPredicates()
	for trial := 0; trial < 10; trial++ {
		d := db.New()
		n := 2 + rng.Intn(5)
		for _, sig := range p1.Predicates() {
			if idb[sig.Name] {
				continue
			}
			for k := 0; k < 1+rng.Intn(5); k++ {
				args := make([]ast.Const, sig.Arity)
				for i := range args {
					args[i] = ast.Int(int64(rng.Intn(n)))
				}
				d.AddTuple(sig.Name, args)
			}
		}
		if !eval.MustEval(p1, d).Equal(eval.MustEval(p2, d)) {
			return false
		}
	}
	return true
}

// E8MagicComposition measures the composition claim from the introduction:
// minimizing a program speeds up its magic-sets evaluation too.
func E8MagicComposition() Table {
	t := Table{ID: "E8", Title: "magic sets × minimization (Section I claim)", Bench: "BenchmarkE8_MagicComposition",
		Columns: []string{"chain n", "mode", "answers", "derived facts", "firings", "time"}}

	rng := rand.New(rand.NewSource(2))
	p := workload.Ancestor()
	bloated := p.ReplaceRule(1, workload.InjectRedundantAtoms(p.Rules[1], 2, rng))
	minimized, _ := must2(minimize.Program(context.Background(), bloated, minimize.Options{}))

	for _, n := range []int{128, 256} {
		edb := workload.Chain("Par", n)
		query := ast.NewAtom("Anc", ast.IntTerm(int64(n-6)), ast.Var("y"))
		for _, m := range []struct {
			name, slug string
			answer     func(*ast.Program, *db.Database, ast.Atom) ([][]ast.Const, magic.Stats, error)
			p          *ast.Program
		}{
			{"direct full eval", "direct-bloated", magic.DirectAnswer, bloated},
			{"magic (bloated)", "magic-bloated", magic.Answer, bloated},
			{"magic (minimized)", "magic-minimized", magic.Answer, minimized},
		} {
			var ans [][]ast.Const
			var s magic.Stats
			cell := t.Timed(Op{Name: fmt.Sprintf("chain-%d/%s", n, m.slug), Run: func() { ans, s = must2(m.answer(m.p, edb, query)) }})
			t.AddRow(n, m.name, len(ans), s.DerivedFacts, s.Eval.Firings, cell)
		}
	}
	return t
}

// E9EmbeddedChase profiles the budgeted chase on a diverging embedded-tgd
// instance and a converging one (Sections VIII-IX). The op is the verdict;
// the chase atoms and rounds are those of the same chase run to its budget.
func E9EmbeddedChase() Table {
	t := Table{ID: "E9", Title: "embedded-tgd chase: verdict vs budget (Sections VIII-IX)", Bench: "BenchmarkE9_EmbeddedChase",
		Columns: []string{"instance", "budget atoms", "verdict", "chase atoms", "rounds", "time"}}

	// Diverging: B facts breed forever; the goal is unreachable.
	divergeP := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	divergeT := []ast.TGD{parser.MustParseTGD("A(x, y) -> A(y, w).")}
	divergeRule := parser.MustParseProgram(`Q(x) :- A(x, y), Z(x).`).Rules[0]

	// Converging: Example 11's containment resolves quickly.
	convP := workload.TransitiveClosureGuarded()
	convT := []ast.TGD{parser.MustParseTGD("G(x, z) -> A(x, w).")}
	convRule := workload.TransitiveClosure().Rules[1]

	for _, budget := range []int{16, 64, 256, 1024} {
		b := chase.Budget{MaxAtoms: budget, MaxRounds: budget}
		var v chase.Verdict
		cell := t.Timed(Op{Name: fmt.Sprintf("budget-%d", budget), Run: func() { v = must(chase.SATContainsRule(divergeP, divergeT, divergeRule, b)) }})
		_, frozen := chase.FreezeRule(divergeRule)
		res := must(chase.Apply(divergeP, divergeT, frozen, b))
		t.AddRow("diverging", budget, v.String(), res.DB.Len(), res.Rounds, cell)
	}
	for _, budget := range []int{16, 64} {
		b := chase.Budget{MaxAtoms: budget, MaxRounds: budget}
		var v chase.Verdict
		cell := t.Timed(Op{Name: fmt.Sprintf("converging/budget-%d", budget), Run: func() { v = must(chase.SATContainsRule(convP, convT, convRule, b)) }})
		t.AddRow("converging (Ex.11)", budget, v.String(), "-", "-", cell)
	}
	return t
}

// E11Engines compares the two query-answering strategies on bound ancestor
// queries: full bottom-up + filter and magic sets. Its ops time the chain
// n=96 rows under their engine's name alone; BenchmarkEngines adds the
// tabled top-down engine beside them.
func E11Engines() Table {
	t := Table{ID: "E11", Title: "query engines on bound ancestor queries (extension)", Bench: "BenchmarkEngines",
		Columns: []string{"chain n", "engine", "answers", "work (facts/answers)", "time"}}
	p := workload.Ancestor()
	for _, c := range []struct {
		n      int
		suffix string
	}{{96, ""}, {192, "/chain-192"}} {
		n := c.n
		edb := workload.Chain("Par", n)
		query := ast.NewAtom("Anc", ast.IntTerm(int64(n-6)), ast.Var("y"))
		for _, e := range []struct {
			name, slug string
			answer     func(*ast.Program, *db.Database, ast.Atom) ([][]ast.Const, magic.Stats, error)
		}{
			{"bottom-up + filter", "bottom-up-filter", magic.DirectAnswer},
			{"magic sets", "magic", magic.Answer},
		} {
			var ans [][]ast.Const
			var s magic.Stats
			cell := t.Timed(Op{Name: e.slug + c.suffix, Run: func() { ans, s = must2(e.answer(p, edb, query)) }})
			t.AddRow(n, e.name, len(ans), s.DerivedFacts, cell)
		}
	}
	return t
}

// E12Incremental measures insertion maintenance (one Apply on a maintained
// view) against full re-evaluation. Before every Apply of the incremental
// op, outside the timer, the view retracts the fact again: each Apply
// starts from the base chain's view.
func E12Incremental() Table {
	t := Table{ID: "E12", Title: "incremental insertion maintenance vs full re-evaluation (extension)", Bench: "BenchmarkE12_Incremental",
		Columns: []string{"base chain n", "insertion", "mode", "firings", "time"}}
	p := workload.TransitiveClosure()
	for _, n := range []int{32, 64} {
		base := workload.Chain("A", n)
		prep := must(eval.Prepare(p))
		for _, c := range []struct {
			name, slug string
			fact       []ast.GroundAtom
		}{
			{"disconnected edge", "disconnected-edge", []ast.GroundAtom{ga("A", 500, 501)}},
			{"chain extension", "chain-extension", []ast.GroundAtom{ga("A", int64(n+1), int64(n+2))}},
			{"closing back-edge", "closing-back-edge", []ast.GroundAtom{ga("A", int64(n), 0)}},
		} {
			view, _ := must2(prep.Materialize(context.Background(), base))
			var sInc eval.Stats
			cell := t.Timed(Op{Name: fmt.Sprintf("chain-%d/%s/incremental", n, c.slug),
				Reset: func() { must2(view.Apply(context.Background(), eval.Delta{Retract: c.fact})) },
				Run:   func() { _, sInc = must2(view.Apply(context.Background(), eval.Delta{Assert: c.fact})) }})
			t.AddRow(n, c.name, "incremental", sInc.Firings, cell)

			full := base.Clone()
			full.Add(c.fact[0])
			var sFull eval.Stats
			cell = t.Timed(Op{Name: fmt.Sprintf("chain-%d/%s/full-reeval", n, c.slug), Run: func() { _, sFull = must2(eval.Eval(p, full)) }})
			t.AddRow(n, c.name, "full re-eval", sFull.Firings, cell)
		}
	}
	return t
}

// E14SIPS compares sideways-information-passing strategies on a rule body
// written with the intentional atom first — the order that starves the
// textbook left-to-right SIPS of bindings.
func E14SIPS() Table {
	t := Table{ID: "E14", Title: "SIPS strategies on an unfavourably ordered body (extension)", Bench: "BenchmarkE14_SIPS",
		Columns: []string{"chain n", "SIPS", "answers", "derived facts", "time"}}
	p := parser.MustParseProgram(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Anc(y, z), Par(x, y).
	`)
	for _, n := range []int{60, 120} {
		edb := workload.Chain("Par", n)
		query := ast.NewAtom("Anc", ast.IntTerm(int64(n-6)), ast.Var("y"))
		for _, strat := range []struct {
			name string
			s    magic.SIPS
		}{
			{"left-to-right", magic.LeftToRight},
			{"bound-first", magic.BoundFirst},
		} {
			var ans [][]ast.Const
			var s magic.Stats
			cell := t.Timed(Op{Name: fmt.Sprintf("chain-%d/%s", n, strat.name), Run: func() {
				ans, s = must2(magic.AnswerWithOptions(p, edb, query, magic.Options{SIPS: strat.s}))
			}})
			t.AddRow(n, strat.name, len(ans), s.DerivedFacts, cell)
		}
	}
	return t
}

// E15DerivationCounts renders the join-reduction claim in provenance
// terms: a redundant (uniformly removable) atom multiplies the number of
// rule instantiations justifying the same facts; minimization removes
// exactly that duplicate work while leaving the output unchanged.
func E15DerivationCounts() Table {
	t := Table{ID: "E15", Title: "justification counts before/after minimization (provenance view of Section V)",
		Columns: []string{"EDB", "facts out", "justifications bloated", "justifications minimized", "ratio"}}
	bloated := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), G(x, w).
	`)
	min, _ := must2(minimize.Program(context.Background(), bloated, minimize.Options{}))
	edbs := []struct {
		name string
		d    *db.Database
	}{
		{"chain n=10", workload.Chain("A", 10)},
		{"tree f=2 d=4", workload.Tree("A", 2, 4)},
		{"random n=12 m=18", workload.RandomDigraph("A", 12, 18, 9)},
	}
	for _, e := range edbs {
		cpB, cpM := must(explain.NewProver(bloated, e.d)), must(explain.NewProver(min, e.d))
		if !cpB.Output().Equal(cpM.Output()) {
			panic("programs diverge semantically")
		}
		jb, jm := cpB.TotalJustifications(), cpM.TotalJustifications()
		t.AddRow(e.name, cpB.Output().Len(), jb, jm, ratio(float64(jb), float64(jm)))
	}
	return t
}
