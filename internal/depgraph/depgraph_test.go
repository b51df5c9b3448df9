package depgraph

import (
	"reflect"
	"testing"

	"repro/internal/ast"
)

func tc() *ast.Program {
	return ast.NewProgram(
		ast.NewRule(ast.NewAtom("G", ast.Var("x"), ast.Var("z")),
			ast.NewAtom("A", ast.Var("x"), ast.Var("z"))),
		ast.NewRule(ast.NewAtom("G", ast.Var("x"), ast.Var("z")),
			ast.NewAtom("G", ast.Var("x"), ast.Var("y")),
			ast.NewAtom("G", ast.Var("y"), ast.Var("z"))),
	)
}

func TestRecursive(t *testing.T) {
	p := tc()
	rec := Build(p).RecursivePreds()
	if !rec["G"] || rec["A"] {
		t.Fatalf("RecursivePreds = %v", rec)
	}

	nonrec := ast.NewProgram(
		ast.NewRule(ast.NewAtom("G", ast.Var("x"), ast.Var("z")),
			ast.NewAtom("A", ast.Var("x"), ast.Var("z"))),
	)
	if rec := Build(nonrec).RecursivePreds(); len(rec) != 0 {
		t.Fatalf("non-recursive program has recursive predicates %v", rec)
	}
}

func TestMutualRecursion(t *testing.T) {
	// P :- Q, Q :- P: both recursive although neither has a self-loop.
	p := ast.NewProgram(
		ast.NewRule(ast.NewAtom("P", ast.Var("x")), ast.NewAtom("Q", ast.Var("x"))),
		ast.NewRule(ast.NewAtom("Q", ast.Var("x")), ast.NewAtom("P", ast.Var("x"))),
	)
	g := Build(p)
	rec := g.RecursivePreds()
	if !rec["P"] || !rec["Q"] {
		t.Fatalf("RecursivePreds = %v", rec)
	}
	if cycle, ok := g.Cycle("P", "Q"); !ok || !reflect.DeepEqual(cycle, []string{"P", "Q", "P"}) {
		t.Fatalf("Cycle(P, Q) = %v, %v", cycle, ok)
	}
}

func TestStrataPositiveOnly(t *testing.T) {
	strata, err := Strata(tc())
	if err != nil {
		t.Fatal(err)
	}
	// Everything can live in one stratum for a purely positive program.
	total := 0
	for _, s := range strata {
		total += len(s)
	}
	if total != 2 {
		t.Fatalf("strata = %v", strata)
	}
}

func TestStrataWithNegation(t *testing.T) {
	// Reach(x) :- Src(x). Reach(y) :- Reach(x), E(x,y).
	// Unreach(x) :- Node(x), !Reach(x).
	p := ast.NewProgram(
		ast.NewRule(ast.NewAtom("Reach", ast.Var("x")), ast.NewAtom("Src", ast.Var("x"))),
		ast.NewRule(ast.NewAtom("Reach", ast.Var("y")),
			ast.NewAtom("Reach", ast.Var("x")), ast.NewAtom("E", ast.Var("x"), ast.Var("y"))),
		ast.Rule{
			Head:    ast.NewAtom("Unreach", ast.Var("x")),
			Body:    []ast.Atom{ast.NewAtom("Node", ast.Var("x"))},
			NegBody: []ast.Atom{ast.NewAtom("Reach", ast.Var("x"))},
		},
	)
	strata, err := Strata(p)
	if err != nil {
		t.Fatal(err)
	}
	stratumOf := map[string]int{}
	for i, s := range strata {
		for _, pred := range s {
			stratumOf[pred] = i
		}
	}
	if stratumOf["Unreach"] <= stratumOf["Reach"] {
		t.Fatalf("Unreach stratum %d not above Reach stratum %d", stratumOf["Unreach"], stratumOf["Reach"])
	}
}

func TestStrataUnstratifiable(t *testing.T) {
	// P(x) :- A(x), !Q(x). Q(x) :- A(x), !P(x). Negation through recursion.
	p := ast.NewProgram(
		ast.Rule{
			Head:    ast.NewAtom("P", ast.Var("x")),
			Body:    []ast.Atom{ast.NewAtom("A", ast.Var("x"))},
			NegBody: []ast.Atom{ast.NewAtom("Q", ast.Var("x"))},
		},
		ast.Rule{
			Head:    ast.NewAtom("Q", ast.Var("x")),
			Body:    []ast.Atom{ast.NewAtom("A", ast.Var("x"))},
			NegBody: []ast.Atom{ast.NewAtom("P", ast.Var("x"))},
		},
	)
	if _, err := Strata(p); err == nil {
		t.Fatal("unstratifiable program accepted")
	}
}

func TestPredsAndSCCsDeterministic(t *testing.T) {
	g := Build(tc())
	preds := g.Preds()
	if len(preds) != 2 {
		t.Fatalf("Preds = %v", preds)
	}
	a, _ := Build(tc()).RuleGroups()
	b, _ := Build(tc()).RuleGroups()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("components not deterministic")
	}
}
