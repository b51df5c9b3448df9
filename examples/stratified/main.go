// Stratified negation — the extension the paper's conclusion announces
// ("the results on uniform containment and minimization can be extended to
// Datalog programs with stratified negation"). A reachability analysis
// with negation is evaluated stratum by stratum, minimized by the same
// Fig. 2 minimizer pure programs use (its containment tests decide negated
// literals through an encoding), and a derived fact is explained with a
// derivation tree.
//
// Run with: go run ./examples/stratified
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/minimize"
	"repro/internal/parser"
)

func main() {
	res, err := parser.Parse(`
		% Which services are reachable from the entry point, and which are
		% dead? The Dead rule needs negation; E(x,w) in the second rule is
		% redundant bloat.
		Reach(x) :- Entry(x).
		Reach(y) :- Reach(x), E(x, y), E(x, w).
		Dead(x)  :- Service(x), !Reach(x).

		Entry(1).
		E(1, 2). E(2, 3). E(4, 5).
		Service(1). Service(2). Service(3). Service(4). Service(5).
	`)
	if err != nil {
		log.Fatal(err)
	}
	p := res.Program

	strata, err := depgraph.Strata(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("strata (negation forces Dead above Reach):")
	for i, s := range strata {
		fmt.Printf("  stratum %d: %v\n", i, s)
	}

	// Minimize: the redundant E(x,w) goes, and !Reach(x) — which the Dead
	// rule needs — stays.
	min, trace, err := minimize.Program(context.Background(), p, minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nminimization removed %d atom(s):\n", trace.AtomsRemoved())
	fmt.Print(min)

	// Evaluate and report.
	edb := db.FromFacts(res.Facts)
	out, _, err := eval.Eval(min, edb, eval.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndead services:")
	for _, f := range out.Facts() {
		if f.Pred == "Dead" {
			fmt.Printf("  %v\n", f)
		}
	}

	// Explain a negative finding: why is service 5 dead? The proof shows
	// the positive premise; the negation check is implicit in the rule.
	prover, err := explain.NewProver(min, edb)
	if err != nil {
		log.Fatal(err)
	}
	d, ok := prover.Explain(ast.NewGroundAtom("Dead", ast.Int(5)))
	if !ok {
		log.Fatal("Dead(5) not derived")
	}
	fmt.Println("\nwhy Dead(5):")
	fmt.Print(d.Format(min, res.Symbols))
}
