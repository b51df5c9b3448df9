package eval

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

// pickDerivedGoal returns a fact of full that is not in the input d — the
// kind of goal an early-stopping evaluation can actually cut short — or ok
// false when p derives nothing new from d.
func pickDerivedGoal(d, full *db.Database) (ast.GroundAtom, bool) {
	for _, g := range full.Facts() {
		if !d.Has(g) {
			return g, true
		}
	}
	return ast.GroundAtom{}, false
}

// TestQuickPreparedEqualsOneShot checks that preparing a program once and
// evaluating through the Prepared is observationally identical to the
// one-shot Eval — same output database, same Added count — over random
// programs crossed over {goal unset, goal set}, with the naive oracle as the
// common reference.
func TestQuickPreparedEqualsOneShot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		full, sFull, err := Eval(p, d)
		if err != nil {
			return false
		}
		if want, naiveFirings := oracleEval(t, p, d); !full.Equal(want) || sFull.Firings > naiveFirings {
			return false
		}
		pr, err := Prepare(p)
		if err != nil {
			return false
		}
		out, st, err := pr.Eval(d)
		if err != nil {
			return false
		}
		if !out.Equal(full) || st.Added != sFull.Added {
			return false
		}
		// The Prepared is reusable: a second evaluation of the same input
		// repeats the result exactly.
		again, st2, err := pr.Eval(d)
		if err != nil || !again.Equal(full) || st2.Added != st.Added {
			return false
		}

		// Goal set: the early stop must be sound — the goal is reached iff
		// the fixpoint derives it, and the partial database never exceeds
		// the fixpoint.
		goal, ok := pickDerivedGoal(d, full)
		if !ok {
			return true
		}
		part, reached, _, err := pr.Run(context.Background(), d, &goal, 0)
		if err != nil {
			return false
		}
		return reached && part.Has(goal) && full.Contains(part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGoalUnreachable checks that an unreachable goal degrades to a
// plain fixpoint evaluation: nothing is cut short and reached is false.
func TestQuickGoalUnreachable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		full, sFull, err := Eval(p, d)
		if err != nil {
			return false
		}
		goal := ast.NewGroundAtom("NoSuchPred", ast.Int(0))
		pr, err := Prepare(p)
		if err != nil {
			return false
		}
		out, reached, st, err := pr.Run(context.Background(), d, &goal, 0)
		if err != nil {
			return false
		}
		return !reached && out.Equal(full) && st.Added == sFull.Added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPreparedGoalStopsMidStratum pins the emit-path enforcement: with a
// two-stratum program and a goal in the first stratum, evaluation halts
// before the second stratum runs at all.
func TestPreparedGoalStopsMidStratum(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		H(x, z) :- G(x, z).`)
	d := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2)})
	goal := ga("G", 1, 2)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	out, reached, _, err := pr.Run(context.Background(), d, &goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reached || !out.Has(goal) {
		t.Fatal("goal not reached")
	}
	if out.Has(ga("H", 1, 2)) {
		t.Fatal("evaluation ran past the goal into the next stratum")
	}
}

// TestPreparedGoalAlreadyInInput checks the degenerate case: a goal already
// present in the input database stops evaluation before any rule fires.
func TestPreparedGoalAlreadyInInput(t *testing.T) {
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	d := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("G", 7, 7)})
	goal := ga("G", 7, 7)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	out, reached, st, err := pr.Run(context.Background(), d, &goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reached || st.Added != 0 {
		t.Fatalf("reached=%v added=%d, want immediate stop", reached, st.Added)
	}
	if out.Has(ga("G", 1, 2)) {
		t.Fatal("rules fired despite the goal being in the input")
	}
}

// TestOrderPermPrefersBound: an atom with more columns bound — by a constant
// or a variable of the prefix — goes first, behind the lead when one is named.
func TestOrderPermPrefersBound(t *testing.T) {
	atoms := []ast.Atom{
		ast.NewAtom("B", ast.Var("u"), ast.Var("v")),
		ast.NewAtom("A", ast.Var("x"), ast.IntTerm(1)),
		ast.NewAtom("C", ast.Var("u"), ast.Var("x")),
	}
	if got := orderPermSized(atoms, -1, nil); !slices.Equal(got, []int{1, 2, 0}) {
		t.Fatalf("orderPermSized = %v, want [1 2 0]", got)
	}
	if got := orderPermSized(atoms, 0, nil); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("orderPermSized led by 0 = %v, want [0 1 2]", got)
	}
	if got := orderPermSized(atoms, 2, nil); !slices.Equal(got, []int{2, 1, 0}) {
		t.Fatalf("orderPermSized led by 2 = %v, want [2 1 0]", got)
	}
}

// TestOrderPermSized: among equally bound atoms the smaller relation leads;
// without sizes, source order breaks the tie.
func TestOrderPermSized(t *testing.T) {
	sizes := map[string]int{"Big": 50, "Small": 1}
	atoms := []ast.Atom{
		ast.NewAtom("Big", ast.Var("x"), ast.Var("y")),
		ast.NewAtom("Small", ast.Var("x"), ast.Var("z")),
	}
	if got := orderPermSized(atoms, -1, func(pred string) int { return sizes[pred] }); got[0] != 1 {
		t.Fatalf("size-aware ordering failed: %v", got)
	}
	if got := orderPermSized(atoms, -1, nil); got[0] != 0 {
		t.Fatalf("tie-break changed: %v", got)
	}
}
