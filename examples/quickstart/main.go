// Quickstart: parse a Datalog program and its facts, evaluate it bottom-up,
// and query the result — the Example 1/2 session from the paper.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

func main() {
	// Example 1's transitive-closure program over the Example 2 EDB.
	res, err := parser.Parse(`
		% G is the transitive closure of A.
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).

		A(1, 2). A(1, 4). A(4, 1).
	`)
	if err != nil {
		log.Fatal(err)
	}

	edb := db.FromFacts(res.Facts)
	out, stats, err := eval.Eval(res.Program, edb)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("program:")
	fmt.Print(res.Program)
	fmt.Printf("\noutput DB (%d facts, %d fixpoint rounds):\n", out.Len(), stats.Rounds)
	fmt.Print(out)

	// Point query: which nodes does 4 reach?
	fmt.Println("\nnodes reachable from 4:")
	b := ast.Binding{}
	query := ast.NewAtom("G", ast.IntTerm(4), ast.Var("y"))
	for _, f := range out.Facts() {
		if _, ok := query.MatchGround(f.Pred, f.Args, b); ok {
			fmt.Printf("  %v\n", f)
			delete(b, "y")
		}
	}

	// The paper's uniform semantics: feed an IDB fact as input (Example 3).
	in2 := db.New()
	in2.Add(ast.NewGroundAtom("A", ast.Int(1), ast.Int(2)))
	in2.Add(ast.NewGroundAtom("G", ast.Int(2), ast.Int(5)))
	out2, _, err := eval.Eval(res.Program, in2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith an initial IDB fact G(2,5) the program still closes transitively:")
	fmt.Print(out2)
}
