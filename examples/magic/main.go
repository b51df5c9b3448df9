// Magic sets × minimization: the composition the paper's introduction
// promises — "removing redundant parts can only speed up the [magic set]
// computation". An ancestor query with a bound argument is answered three
// ways: full evaluation, magic rewriting, and magic after minimization.
//
// Run with: go run ./examples/magic
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/workload"
)

func main() {
	// Ancestor with two injected redundant atoms in its recursive rule —
	// the kind of bloat a generated or hand-evolved program accumulates.
	base := workload.Ancestor()
	rng := rand.New(rand.NewSource(2))
	bloated := base.ReplaceRule(1, workload.InjectRedundantAtoms(base.Rules[1], 2, rng))
	fmt.Println("bloated program:")
	fmt.Print(bloated)

	minimized, trace, err := minimize.Program(context.Background(), bloated, minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFig. 2 removed %d atoms:\n", trace.AtomsRemoved())
	fmt.Print(minimized)

	// A deep chain and a query bound on the first argument.
	const n = 200
	edb := workload.Chain("Par", n)
	query := ast.NewAtom("Anc", ast.IntTerm(n-6), ast.Var("y"))
	fmt.Printf("\nquery: %v over a %d-chain\n\n", query, n)

	// The magic-sets rewriting itself.
	rw, err := magic.Rewrite(minimized, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("magic-rewritten program:")
	fmt.Print(rw.Program)
	fmt.Printf("seed: %v\n\n", rw.Seed)

	type result struct {
		name    string
		answers int
		derived int
		firings int
	}
	var results []result

	directAns, directStats, err := magic.DirectAnswer(bloated, edb, query)
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, result{"full evaluation (bloated)", len(directAns), directStats.DerivedFacts, directStats.Eval.Firings})

	magicAns, magicStats, err := magic.Answer(bloated, edb, query)
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, result{"magic (bloated)", len(magicAns), magicStats.DerivedFacts, magicStats.Eval.Firings})

	minAns, minStats, err := magic.Answer(minimized, edb, query)
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, result{"magic (minimized)", len(minAns), minStats.DerivedFacts, minStats.Eval.Firings})

	fmt.Printf("%-28s %8s %14s %10s\n", "mode", "answers", "derived facts", "firings")
	for _, r := range results {
		fmt.Printf("%-28s %8d %14d %10d\n", r.name, r.answers, r.derived, r.firings)
	}
	if len(directAns) != len(magicAns) || len(magicAns) != len(minAns) {
		log.Fatal("answer sets disagree!")
	}
	fmt.Println("\nall three modes return the same answers; magic touches a fraction")
	fmt.Println("of the facts, and minimization shrinks the joins further.")
}
