package unfold_test

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/unfold"
	"repro/internal/workload"
)

func TestDepth1IsInitRules(t *testing.T) {
	p := workload.TransitiveClosure()
	res, err := unfold.ToDepth(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Program.Rules) != 1 {
		t.Fatalf("depth 1: %v", res.Program)
	}
	// Output rules are canonicalized (variables renamed by first
	// occurrence), so compare canonical forms.
	if res.Program.Rules[0].CanonicalString() != p.Rules[0].CanonicalString() {
		t.Fatalf("depth-1 rule differs: %v", res.Program.Rules[0])
	}
}

func TestUnfoldedBodiesAreExtensional(t *testing.T) {
	p := workload.TransitiveClosure()
	res, err := unfold.ToDepth(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	idb := p.IDBPredicates()
	for _, r := range res.Program.Rules {
		for _, a := range r.Body {
			if idb[a.Pred] {
				t.Fatalf("unfolded rule has IDB body atom: %v", r)
			}
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("unfolded rule invalid: %v", err)
		}
	}
}

// TestUnfoldingMatchesKRounds is the semantic core: the non-recursive
// application of the depth-k unfolding equals the first k rounds of naive
// evaluation.
func TestUnfoldingMatchesKRounds(t *testing.T) {
	programs := []*ast.Program{
		workload.TransitiveClosure(),
		workload.TransitiveClosureLinear(),
		workload.Layered(3),
	}
	rng := rand.New(rand.NewSource(17))
	for pi, p := range programs {
		edbPred := "A"
		if pi == 2 {
			edbPred = "E"
		}
		for trial := 0; trial < 6; trial++ {
			n := 3 + rng.Intn(5)
			edb := workload.RandomDigraph(edbPred, n, 2*n, int64(trial))
			for k := 1; k <= 3; k++ {
				res, err := unfold.ToDepth(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Complete {
					t.Fatalf("unfolding truncated at depth %d", k)
				}
				got := eval.NonRecursive(res.Program, edb)
				want := kRounds(p, edb, k)
				if !got.Equal(want) {
					t.Fatalf("program %d, k=%d:\nunfolded: %v\nk-rounds: %v\nover %v", pi, k, got, want, edb)
				}
			}
		}
	}
}

// kRounds computes the IDB facts derivable within k naive rounds.
func kRounds(p *ast.Program, edb *db.Database, k int) *db.Database {
	cur := edb.Clone()
	for i := 0; i < k; i++ {
		add := eval.NonRecursive(p, cur)
		if cur.AddAll(add) == 0 {
			break
		}
	}
	out := db.New()
	idb := p.IDBPredicates()
	for _, f := range cur.Facts() {
		if idb[f.Pred] {
			out.Add(f)
		}
	}
	return out
}

func TestUnfoldWithConstantsInHeads(t *testing.T) {
	// A derivation head holding a constant must specialize the consuming
	// rule during unfolding (the mgu direction the naive matcher misses).
	p := parser.MustParseProgram(`
		G(x, 3) :- A(x).
		H(x, z) :- G(x, z), B(z).
	`)
	res, err := unfold.ToDepth(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Expect H(x, 3) :- A(x), B(3) among the unfoldings.
	found := false
	for _, r := range res.Program.Rules {
		if r.Head.Pred == "H" && !r.Head.Args[1].IsVar && r.Head.Args[1].Val == ast.Int(3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("constant specialization missing:\n%v", res.Program)
	}
	// Semantics check on a concrete EDB.
	edb := db.FromFacts([]ast.GroundAtom{
		{Pred: "A", Args: []ast.Const{ast.Int(7)}},
		{Pred: "B", Args: []ast.Const{ast.Int(3)}},
	})
	got := eval.NonRecursive(res.Program, edb)
	if !got.Has(ast.NewGroundAtom("H", ast.Int(7), ast.Int(3))) {
		t.Fatalf("unfolded program misses H(7,3): %v", got)
	}
}

func TestTruncationReported(t *testing.T) {
	// Doubling TC explodes: its depth-7 unfolding passes the rule cap and
	// must report incompleteness.
	p := workload.TransitiveClosure()
	res, err := unfold.ToDepth(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatalf("a capped unfolding of %d rules reported complete", len(res.Program.Rules))
	}
}

func TestErrors(t *testing.T) {
	if _, err := unfold.ToDepth(workload.TransitiveClosure(), 0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	neg := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	if _, err := unfold.ToDepth(neg, 2); err == nil {
		t.Fatal("negation accepted")
	}
}

func TestPreliminarySatisfiesAtDepth(t *testing.T) {
	// H is derivable from A only at depth 2, so the tgd G(x,z) -> H(x)
	// fails against the depth-1 preliminary DB but holds at depth 2.
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		H(x) :- G(x, y).
	`)
	tau := parser.MustParseTGD("G(x, z) -> H(x).")
	v, _, err := preserve.CheckPreliminary(p, []ast.TGD{tau}, preserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("depth-1 verdict %v, want no", v)
	}
	v, _, err = preserve.CheckPreliminary(p, []ast.TGD{tau}, preserve.Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("depth-2 verdict %v, want yes", v)
	}
}

func TestPreliminaryDepthConsistency(t *testing.T) {
	// Depth 1 through the generalized entry point equals the plain test.
	p := workload.TransitiveClosureGuarded()
	tau := parser.MustParseTGD("G(x, z) -> A(x, w).")
	for depth := 1; depth <= 3; depth++ {
		v, _, err := preserve.CheckPreliminary(p, []ast.TGD{tau}, preserve.Options{Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if v != chase.Yes {
			t.Fatalf("depth %d: verdict %v", depth, v)
		}
	}
}
