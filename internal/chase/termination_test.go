package chase

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/parser"
)

func tgdSet(t *testing.T, srcs ...string) []ast.TGD {
	t.Helper()
	out := make([]ast.TGD, len(srcs))
	for i, s := range srcs {
		out[i] = parser.MustParseTGD(s)
	}
	return out
}

func factDB(t *testing.T, src string) *db.Database {
	t.Helper()
	res, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d := db.New()
	for _, g := range res.Facts {
		d.Add(g)
	}
	return d
}

// TestWeaklyAcyclicBudgetFreeFixpoint pins the acceptance criterion: a
// weakly acyclic tgd set chased under Budget{} semantics runs to true
// fixpoint on the classification-derived bound — Complete, never an
// exhaustion Unknown — and reports its class on the result.
func TestWeaklyAcyclicBudgetFreeFixpoint(t *testing.T) {
	p := parser.MustParseProgram("Q2(x, y) :- Q(x, y).")
	tgds := tgdSet(t,
		"P(x) -> Q(x, y).",
		"Q(x, y) -> R(y).",
	)
	d := factDB(t, "P(1). P(2). P(3).")

	res, err := Apply(p, tgds, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("weakly acyclic chase did not complete under the derived budget: %+v", res)
	}
	if res.Class != depgraph.TermWeaklyAcyclic {
		t.Fatalf("result class = %v, want weakly-acyclic", res.Class)
	}
	// Each P(c) got a null partner in Q and its null flowed into R.
	if res.DB.Len() < 3+3+3 {
		t.Fatalf("fixpoint too small (%d atoms):\n%v", res.DB.Len(), res.DB)
	}

	// The same chase goal-directed: SATContainsRule under Budget{} must
	// resolve (the set terminates), not return a budget Unknown.
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	c.noSyntactic = true
	v, err := c.SATContainsRule(context.Background(), tgds, parser.MustParseProgram("R2(y) :- P(x), Q(x, y).").Rules[0], Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v == Unknown {
		t.Fatal("terminating set produced a budget Unknown under Budget{}")
	}
}

// TestExplicitBudgetStillHonored: a caller's explicit budget is never
// replaced by a derived bound, so a tiny budget still exhausts.
func TestExplicitBudgetStillHonored(t *testing.T) {
	p := ast.NewProgram()
	tgds := tgdSet(t, "P(x) -> Q(x, y).", "Q(x, y) -> R(y).")
	d := factDB(t, "P(1). P(2). P(3). P(4). P(5).")
	res, err := Apply(p, tgds, d, Budget{MaxAtoms: 6, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatalf("explicit 6-atom budget should exhaust on this chase: %+v", res)
	}
	if res.Class != depgraph.TermWeaklyAcyclic {
		t.Fatalf("class must still be reported on exhaustion, got %v", res.Class)
	}
}

// TestFullSetFastPathMatchesAlternation: a full tgd set collapses to one
// combined fixpoint; the database must equal the round-alternation oracle's
// and both arms must report Complete.
func TestFullSetFastPathMatchesAlternation(t *testing.T) {
	p := parser.MustParseProgram("T(x, z) :- T(x, y), T(y, z).")
	tgds := tgdSet(t,
		"E(x, y) -> T(x, y).",
		"T(x, y), E(y, z) -> Reach(x, z).",
	)
	d := factDB(t, "E(1, 2). E(2, 3). E(3, 4).")

	fast, err := Apply(p, tgds, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	oc, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	oc.noTermination = true
	slow, err := oc.Apply(context.Background(), tgds, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Complete || !slow.Complete {
		t.Fatalf("complete: fast=%v slow=%v", fast.Complete, slow.Complete)
	}
	if !fast.DB.Equal(slow.DB) {
		t.Fatalf("full-set fast path diverged from alternation:\nfast:\n%v\nslow:\n%v", fast.DB, slow.DB)
	}
	if fast.Rounds != 1 {
		t.Fatalf("fast path rounds = %d, want 1", fast.Rounds)
	}
	if slow.Class != depgraph.TermUnclassified {
		t.Fatalf("ablated session must not classify, got %v", slow.Class)
	}
}

// TestChaseBudgetCounters: budget-free and budget-bounded runs land in the
// session's stats counters.
func TestChaseBudgetCounters(t *testing.T) {
	p := ast.NewProgram()
	tgds := tgdSet(t, "P(x) -> Q(x, y).")
	d := factDB(t, "P(1).")
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(context.Background(), tgds, d, Budget{}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ChasesBudgetFree != 1 || st.ChasesBudgetBounded != 0 {
		t.Fatalf("after Budget{} run: free=%d bounded=%d", st.ChasesBudgetFree, st.ChasesBudgetBounded)
	}
	if _, err := c.Apply(context.Background(), tgds, d, Budget{MaxAtoms: 50}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ChasesBudgetFree != 1 || st.ChasesBudgetBounded != 1 {
		t.Fatalf("after explicit run: free=%d bounded=%d", st.ChasesBudgetFree, st.ChasesBudgetBounded)
	}
	// A divergence-capable set under Budget{} must count as bounded.
	div := tgdSet(t, "R(x, y) -> R(y, z).")
	pj := parser.MustParseProgram("T(x, w) :- R(x, y), R(y, w).")
	cj, err := NewChecker(pj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cj.Apply(context.Background(), div, factDB(t, "R(1, 2)."), Budget{MaxAtoms: 40, MaxRounds: 10}); err != nil {
		t.Fatal(err)
	}
	if st := cj.Stats(); st.ChasesBudgetBounded < 1 {
		t.Fatalf("divergent run not counted as bounded: %+v", st)
	}
}

// tgdPool is a pool of small dependency shapes the randomized corpus draws
// from: existential chains and cycles, full rules, and sticky breakers.
var tgdPool = []string{
	"A(x) -> B(x, y).",
	"B(x, y) -> C(y).",
	"C(x) -> A(x).",
	"B(x, y) -> B(y, z).",
	"A(x), C(x) -> D(x).",
	"D(x) -> A(x).",
	"B(x, y), B(y, z) -> E(x, z).",
	"E(x, z) -> B(x, w).",
	"D(x) -> E(x, y).",
	"E(x, y) -> D(y).",
}

// TestRandomCorpusClassificationAgreesWithChase is the acceptance oracle:
// over a randomized tgd corpus, every set the classifier calls terminating
// must reach a true fixpoint under Budget{} semantics (no exhaustion
// Unknown), and whenever the raw-budget oracle arm also completes, the two
// databases must agree. The CI race step runs this package under -race.
func TestRandomCorpusClassificationAgreesWithChase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := parser.MustParseProgram("F(x, y) :- E(x, y).")
	base := factDB(t, "A(1). B(1, 2). C(2). D(3). E(2, 3). E(3, 4).")

	terminating := 0
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(4)
		srcs := make([]string, 0, n)
		for i := 0; i < n; i++ {
			srcs = append(srcs, tgdPool[rng.Intn(len(tgdPool))])
		}
		tgds := tgdSet(t, srcs...)
		cl := depgraph.ClassifyTGDs(prog.Rules, tgds)

		c, err := NewChecker(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Budget{} semantics for sets the classifier calls terminating (the
		// property under test); a modest explicit cutoff for the rest so a
		// genuinely diverging chase doesn't grind the corpus through the
		// full default budget.
		budget := Budget{}
		if !cl.Class.ChaseTerminates() {
			budget = Budget{MaxAtoms: 3000, MaxRounds: 300}
		}
		res, err := c.Apply(context.Background(), tgds, base, budget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != cl.Class {
			t.Fatalf("set %v: result class %v != classifier %v", srcs, res.Class, cl.Class)
		}
		if cl.Class.ChaseTerminates() {
			terminating++
			if !res.Complete {
				t.Fatalf("set %v classified %v but exhausted its derived budget", srcs, cl.Class)
			}
		}

		// Oracle arm: raw budget, classifier off. When it completes, the
		// two fixpoints must agree (the budget never changes the chase's
		// derivation order, only where it stops).
		oc, err := NewChecker(prog)
		if err != nil {
			t.Fatal(err)
		}
		oc.noTermination = true
		oracle, err := oc.Apply(context.Background(), tgds, base, Budget{MaxAtoms: 3000, MaxRounds: 300})
		if err != nil {
			t.Fatal(err)
		}
		if cl.Class.ChaseTerminates() && !oracle.Complete {
			t.Fatalf("set %v classified %v but the raw-budget oracle exhausted", srcs, cl.Class)
		}
		if res.Complete && oracle.Complete && !res.DB.Equal(oracle.DB) {
			t.Fatalf("set %v: classified chase and oracle disagree:\n%v\nvs\n%v", srcs, res.DB, oracle.DB)
		}
	}
	if terminating == 0 {
		t.Fatal("corpus generated no terminating sets; pool is miscalibrated")
	}
}

// BenchmarkAblation_TerminationFastPath measures what the termination
// classifier buys the chase on a full (existential-free) tgd set: the
// classified arm collapses the rule/tgd round alternation into one prepared
// fixpoint, while the raw-budget arm (classification disabled) replays the
// staged pipeline round by round under the default budget.
func BenchmarkAblation_TerminationFastPath(b *testing.B) {
	const stages = 6
	p := parser.MustParseProgram(fmt.Sprintf(`T(x, z) :- S%d(x, y), S%d(y, z).`, stages, stages))
	var tgds []ast.TGD
	for i := 0; i < stages; i++ {
		tgds = append(tgds, parser.MustParseTGD(fmt.Sprintf("S%d(x, y) -> S%d(x, y).", i, i+1)))
	}
	rng := rand.New(rand.NewSource(11))
	base := db.New()
	for i := 0; i < 400; i++ {
		base.Add(ast.GroundAtom{Pred: "S0", Args: []ast.Const{
			ast.Int(int64(rng.Intn(80))), ast.Int(int64(rng.Intn(80)))}})
	}
	snap := base.Freeze()

	for _, arm := range []struct {
		name          string
		noTermination bool
	}{{"classified", false}, {"raw-budget", true}} {
		b.Run(arm.name, func(b *testing.B) {
			c, err := NewChecker(p)
			if err != nil {
				b.Fatal(err)
			}
			c.noTermination = arm.noTermination
			for i := 0; i < b.N; i++ {
				res, err := c.Apply(context.Background(), tgds, snap.Thaw(), Budget{})
				if err != nil || !res.Complete {
					b.Fatalf("chase: complete=%v err=%v", res.Complete, err)
				}
			}
		})
	}
}
