package eval_test

import (
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// ExampleEval reproduces the paper's Example 2: evaluating the transitive-
// closure program bottom-up.
func ExampleEval() {
	res, err := parser.Parse(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		A(1, 2). A(1, 4). A(4, 1).
	`)
	if err != nil {
		log.Fatal(err)
	}
	out, _, err := eval.Eval(res.Program, db.FromFacts(res.Facts))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Len(), "facts")
	fmt.Println(out.Has(ast.NewGroundAtom("G", ast.Int(4), ast.Int(2))))
	// Output:
	// 9 facts
	// true
}
