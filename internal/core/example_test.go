package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/core"
)

// ExampleEval reproduces the paper's Example 2: evaluating the transitive-
// closure program bottom-up.
func ExampleEval() {
	res, err := core.Parse(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		A(1, 2). A(1, 4). A(4, 1).
	`)
	if err != nil {
		log.Fatal(err)
	}
	out, _, err := core.Eval(res.Program, core.FromFacts(res.Facts), core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Len(), "facts")
	fmt.Println(out.Has(ast.NewGroundAtom("G", ast.Int(4), ast.Int(2))))
	// Output:
	// 9 facts
	// true
}

// ExampleMinimizeRule reproduces the paper's Examples 7–8: the Fig. 1
// algorithm removes the redundant atom A(w,y).
func ExampleMinimizeRule() {
	p, err := core.ParseProgram(`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`)
	if err != nil {
		log.Fatal(err)
	}
	min, trace, err := core.MinimizeRule(p.Rules[0], core.MinimizeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(min)
	fmt.Println("removed:", trace.AtomRemovals[0].Atom)
	// Output:
	// G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).
	// removed: A(w, y)
}

// ExampleUniformlyContains reproduces Example 6: the right-linear
// transitive closure is uniformly contained in the doubled one, but not
// conversely.
func ExampleUniformlyContains() {
	p1, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	p2, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	ok, _, _ := core.UniformlyContains(p1, p2)
	fmt.Println("P2 ⊑ᵘ P1:", ok)
	ok, witness, _ := core.UniformlyContains(p2, p1)
	fmt.Println("P1 ⊑ᵘ P2:", ok, "— failing rule index:", witness)
	// Output:
	// P2 ⊑ᵘ P1: true
	// P1 ⊑ᵘ P2: false — failing rule index: 1
}

// ExampleEquivOptimize reproduces Example 18: the guard A(y,w) is
// redundant under plain equivalence, witnessed by a tgd found
// automatically.
func ExampleEquivOptimize() {
	p, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	opt, removals, err := core.EquivOptimize(p, core.EquivOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(opt)
	fmt.Println("via:", removals[0].TGD)
	// Output:
	// G(x, z) :- A(x, z).
	// G(x, z) :- G(x, y), G(y, z).
	// via: G(y, z) -> A(y, w).
}

// ExampleMagicAnswer shows the magic-sets pipeline on a bound ancestor
// query.
func ExampleMagicAnswer() {
	res, _ := core.Parse(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Par(x, y), Anc(y, z).
		Par(1, 2). Par(2, 3). Par(3, 4). Par(7, 8).
	`)
	query := ast.NewAtom("Anc", ast.IntTerm(2), ast.Var("y"))
	ans, stats, err := core.MagicAnswer(res.Program, core.FromFacts(res.Facts), query, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(ans), "answers;", stats.DerivedFacts, "facts derived")
	// Output:
	// 2 answers; 5 facts derived
}

// ExamplePreserveCheck runs the Fig. 3 preservation procedure and the
// condition (3′) preliminary-DB test through the consolidated entry points,
// then carries the session across the Example 18 weakening with Derive.
func ExamplePreserveCheck() {
	p, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	tgd, _ := core.ParseTGD("G(y, z) -> A(y, w).")
	v, _, _ := core.PreserveCheck(p, []core.TGD{tgd}, core.PreserveOptions{})
	fmt.Println("preserves non-recursively:", v)

	s, _ := core.NewPreserveSession(p)
	v, _, _ = s.CheckPreliminary(context.Background(), []core.TGD{tgd}, core.PreserveOptions{Depth: 2})
	fmt.Println("preliminary DB satisfies at depth 2:", v)

	// Accepting the deletion the tgd justifies yields a one-rule weakening;
	// Derive patches the session instead of rebuilding it.
	weak := p.Rules[1].WithoutBodyAtom(2)
	ds, _ := s.Derive(1, &weak)
	v, _, _ = ds.Check(context.Background(), []core.TGD{tgd}, core.PreserveOptions{})
	fmt.Println("weakened program preserves:", v)
	// Output:
	// preserves non-recursively: yes
	// preliminary DB satisfies at depth 2: yes
	// weakened program preserves: yes
}
