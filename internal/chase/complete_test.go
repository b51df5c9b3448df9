package chase

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
)

// The goal-directed chase used to report Complete=false whenever it stopped
// on its goal, even when the stopping database already was the [P, T]
// fixpoint. These tests pin the truthful semantics: Complete is true exactly
// when the returned database is closed under the rules with every tgd
// satisfied.

func TestGoalStopAtFixpointIsComplete(t *testing.T) {
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	d := db.FromFacts([]ast.GroundAtom{ast.NewGroundAtom("A", ast.Int(1), ast.Int(2))})
	goal := ast.NewGroundAtom("G", ast.Int(1), ast.Int(2))

	res, v, err := c.chaseToGoal(context.Background(), nil, d, &goal, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatalf("goal verdict = %v, want Yes", v)
	}
	// Deriving G(1,2) from the only fact exhausts the program: the partial
	// database is the fixpoint and Complete must say so.
	if !res.Complete {
		t.Fatal("goal reached at the fixpoint but Complete=false")
	}
}

func TestGoalStopBeforeFixpointIsIncomplete(t *testing.T) {
	// G's stratum runs before H's, so stopping on the G goal leaves H(1,2)
	// underived: the database is not closed and Complete must be false.
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		H(x, z) :- G(x, z).`)
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	d := db.FromFacts([]ast.GroundAtom{ast.NewGroundAtom("A", ast.Int(1), ast.Int(2))})
	goal := ast.NewGroundAtom("G", ast.Int(1), ast.Int(2))

	res, v, err := c.chaseToGoal(context.Background(), nil, d, &goal, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatalf("goal verdict = %v, want Yes", v)
	}
	if res.Complete {
		t.Fatal("goal reached before the fixpoint but Complete=true")
	}
	if res.DB.Has(ast.NewGroundAtom("H", ast.Int(1), ast.Int(2))) {
		t.Fatal("early stop did not stop: H(1,2) was derived")
	}
}

func TestGoalStopWithUnsatisfiedTgdIsIncomplete(t *testing.T) {
	// The rules are saturated when the goal hits, but the tgd still demands
	// a B fact, so the database is not a [P, T] fixpoint.
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	tgds := []ast.TGD{parser.MustParseTGD("G(x, z) -> B(x).")}
	d := db.FromFacts([]ast.GroundAtom{ast.NewGroundAtom("A", ast.Int(1), ast.Int(2))})
	goal := ast.NewGroundAtom("G", ast.Int(1), ast.Int(2))

	res, v, err := c.chaseToGoal(context.Background(), tgds, d, &goal, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatalf("goal verdict = %v, want Yes", v)
	}
	if res.Complete {
		t.Fatal("tgd unsatisfied at goal time but Complete=true")
	}
}

func TestGoallessChaseStillComplete(t *testing.T) {
	// Sanity: the nil-goal chase keeps its fixpoint semantics.
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	tgds := []ast.TGD{parser.MustParseTGD("G(x, z) -> B(x).")}
	d := db.FromFacts([]ast.GroundAtom{ast.NewGroundAtom("A", ast.Int(1), ast.Int(2))})
	res, err := Apply(p, tgds, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("chase to fixpoint reported Complete=false")
	}
	if !res.DB.Has(ast.NewGroundAtom("B", ast.Int(1))) {
		t.Fatal("tgd did not fire")
	}
}
