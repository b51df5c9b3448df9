package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
)

// ExampleNewContainmentChecker reproduces Example 6: the right-linear
// transitive closure is uniformly contained in the doubled one, but not
// conversely.
func ExampleNewContainmentChecker() {
	p1, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	p2, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	ck1, _ := core.NewContainmentChecker(p1)
	ok, _, _ := ck1.Contains(context.Background(), p2)
	fmt.Println("P2 ⊑ᵘ P1:", ok)
	ck2, _ := core.NewContainmentChecker(p2)
	ok, witness, _ := ck2.Contains(context.Background(), p1)
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

// ExamplePreserveCheck runs the Fig. 3 preservation procedure.
func ExamplePreserveCheck() {
	p, _ := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	tgd, _ := parser.ParseTGD("G(y, z) -> A(y, w).")
	v, _, _ := core.PreserveCheck(p, []ast.TGD{tgd}, core.PreserveOptions{})
	fmt.Println("preserves non-recursively:", v)
	// Output:
	// preserves non-recursively: yes
}
