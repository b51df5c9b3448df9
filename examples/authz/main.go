// Relationship-based authorization — group membership, role inheritance,
// and document permissions as a recursive Datalog program with symbolic
// constants, answered two ways (bottom-up and magic sets) and explained with
// derivation trees. This is the "all answers over a
// database" setting the paper's introduction frames: authorization checks
// are bound queries, so goal-directed evaluation and minimization both pay.
//
// Run with: go run ./examples/authz
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/explain"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/parser"
)

func main() {
	res, err := parser.Parse(`
		% Group membership is transitive through subgroups.
		Member(u, g) :- Direct(u, g).
		Member(u, g) :- Member(u, h), Subgroup(h, g).

		% A role grant to a group reaches all members; CanRead carries a
		% redundant duplicate of Grant — bloat for the minimizer.
		HasRole(u, r) :- Member(u, g), Grant(g, r), Grant(g, r).
		CanRead(u, d) :- HasRole(u, r), Allows(r, d).

		Direct("ann", "eng").
		Direct("bob", "ops").
		Subgroup("eng", "staff").
		Subgroup("ops", "staff").
		Grant("staff", "viewer").
		Grant("eng", "editor").
		Allows("viewer", "handbook").
		Allows("editor", "designdoc").
	`)
	if err != nil {
		log.Fatal(err)
	}
	p, syms := res.Program, res.Symbols

	min, trace, err := minimize.Program(context.Background(), p, minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 2 removed %d duplicate atom(s) from the policy\n\n", trace.AtomsRemoved())

	edb := db.FromFacts(res.Facts)
	ann, _ := syms.Lookup("ann")
	query := ast.NewAtom("CanRead", ast.Con(ann), ast.Var("d"))

	// Bottom-up + filter.
	direct, directStats, err := magic.DirectAnswer(min, edb, query)
	if err != nil {
		log.Fatal(err)
	}
	// Magic sets.
	magicAns, magicStats, err := magic.Answer(min, edb, query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("what can ann read?")
	for _, t := range direct {
		fmt.Printf("  %s\n", ast.GroundAtom{Pred: "CanRead", Args: t}.Format(syms))
	}
	fmt.Printf("\nwork: bottom-up derived %d facts; magic %d\n", directStats.DerivedFacts, magicStats.DerivedFacts)
	if len(magicAns) != len(direct) {
		log.Fatal("engines disagree!")
	}

	// Why can ann read the design doc?
	docs, _ := syms.Lookup("designdoc")
	prover, err := explain.NewProver(min, edb)
	if err != nil {
		log.Fatal(err)
	}
	d, ok := prover.Explain(ast.NewGroundAtom("CanRead", ann, docs))
	if !ok {
		log.Fatal("CanRead(ann, designdoc) not derivable")
	}
	fmt.Println("\nwhy CanRead(ann, designdoc):")
	fmt.Print(d.Format(min, syms))
}
