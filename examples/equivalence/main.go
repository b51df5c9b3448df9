// Optimization under plain equivalence: the Sections X–XI pipeline on the
// paper's Examples 11/18/19 — redundancies invisible to uniform
// equivalence, witnessed by tuple-generating dependencies.
//
// Run with: go run ./examples/equivalence
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/workload"
)

func main() {
	// Example 11/18: transitive closure whose recursive rule carries the
	// guard A(y,w).
	p1 := workload.TransitiveClosureGuarded()
	fmt.Println("P1 (Example 11):")
	fmt.Print(p1)

	// The guard is NOT redundant under uniform equivalence...
	min, trace, err := minimize.Program(context.Background(), p1, minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFig. 2 minimization removes %d atoms (uniform equivalence is too weak here)\n",
		trace.AtomsRemoved())
	_ = min

	// ... but the Section X conditions hold for T = {G(x,z) -> A(x,w)}:
	tgd, err := parser.ParseTGD("G(x, z) -> A(x, w).")
	if err != nil {
		log.Fatal(err)
	}
	p2 := workload.TransitiveClosure()
	v1, err := chase.SATModelsContained(p1, []ast.TGD{tgd}, p2, chase.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	v2, _, err := preserve.Check(p1, []ast.TGD{tgd}, preserve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	v3, _, err := preserve.CheckPreliminary(p1, []ast.TGD{tgd}, preserve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith T = {%v}:\n", tgd)
	fmt.Printf("  (1)  SAT(T) ∩ M(P1) ⊆ M(P2):        %v\n", v1)
	fmt.Printf("  (2)  P1 preserves T non-recursively:  %v\n", v2)
	fmt.Printf("  (3') preliminary DB satisfies T:      %v\n", v3)

	// The automated heuristic finds the tgd and applies the deletion.
	opt, removals, err := equivopt.Optimize(context.Background(), p1, equivopt.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nautomated Section XI optimization:")
	for _, r := range removals {
		fmt.Printf("  removed %v from rule %d via %v\n", r.Atoms, r.RuleIndex, r.TGD)
	}
	fmt.Println("optimized program:")
	fmt.Print(opt)

	// Sanity: the two programs agree on a concrete EDB even though they are
	// not uniformly equivalent.
	edb := workload.Chain("A", 6)
	o1, _, _ := eval.Eval(p1, edb)
	o2, _, _ := eval.Eval(opt, edb)
	fmt.Printf("\nsame output on a 6-chain: %v\n", o1.Equal(o2))
	eq, _ := chase.UniformlyEquivalent(p1, opt)
	fmt.Printf("uniformly equivalent: %v (as the paper predicts)\n", eq == chase.Yes)

	// Example 19, with a two-atom deletion.
	fmt.Println("\nExample 19:")
	p19 := workload.Example19Program()
	fmt.Print(p19)
	opt19, removals19, err := equivopt.Optimize(context.Background(), p19, equivopt.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range removals19 {
		fmt.Printf("  removed %v via %v\n", r.Atoms, r.TGD)
	}
	fmt.Println("optimized:")
	fmt.Print(opt19)
}
