// Incremental view maintenance — monotone Datalog means insertions can be
// propagated from the new facts alone instead of recomputing the closure
// (the monotonicity the paper's Section X argument leans on, turned into a
// feature). A link-graph reachability view is maintained live while edges
// stream in.
//
// Run with: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	p, err := core.ParseProgram(`
		Reach(x, y) :- Link(x, y).
		Reach(x, z) :- Reach(x, y), Link(y, z).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Initial graph: a 30-node chain, materialized as a maintained view.
	sess, err := core.NewSession(p)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	edb := workload.Chain("Link", 30)
	view, stats, err := sess.Materialize(ctx, edb, core.MaintainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial view: %d facts (%d firings)\n", view.Output().Len(), stats.Firings)

	// Stream in edges one at a time, maintaining the view incrementally.
	inserts := []core.GroundAtom{
		{Pred: "Link", Args: []core.Const{ast.Int(100), ast.Int(101)}}, // disconnected
		{Pred: "Link", Args: []core.Const{ast.Int(30), ast.Int(100)}},  // bridge
		{Pred: "Link", Args: []core.Const{ast.Int(101), ast.Int(0)}},   // closes a cycle
	}
	for _, ins := range inserts {
		diff, incStats, err := view.Apply(ctx, core.DatabaseDelta{Assert: []core.GroundAtom{ins}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("insert %v: +%d facts with %d firings (view now %d facts)\n",
			ins, len(diff.Added)-1, incStats.Firings, view.Output().Len())
	}

	// Cross-check against recomputation from scratch.
	full := edb.Clone()
	for _, ins := range inserts {
		full.Add(ins)
	}
	fresh, freshStats, err := core.Eval(p, full, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfrom-scratch recomputation: %d facts (%d firings)\n", fresh.Len(), freshStats.Firings)
	fmt.Printf("incremental view matches: %v\n", fresh.Equal(view.Output()))
}
