// Andersen-style points-to analysis — a realistic program-analysis
// workload of the kind modern Datalog engines are built for, exercising
// the library end to end: a four-rule inclusion-based analysis is bloated
// with a redundant atom, minimized with Fig. 2, evaluated, and then asked
// a targeted question through the magic-sets rewriting.
//
// Run with: go run ./examples/pointsto
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/parser"
)

func main() {
	// The classic Andersen constraints:
	//   p = &a      AddrOf(p, a)      → PointsTo(p, a)
	//   p = q       Assign(p, q)      → PointsTo(p, x) ⊇ PointsTo(q, x)
	//   p = *q      Load(p, q)        → p points to whatever *q points to
	//   *p = q      Store(p, q)       → whatever p points to points to q's targets
	// The second rule carries a redundant duplicate of Assign — the kind of
	// bloat machine-generated constraint systems accumulate.
	res, err := parser.Parse(`
		PointsTo(p, a) :- AddrOf(p, a).
		PointsTo(p, x) :- Assign(p, q), PointsTo(q, x), Assign(p, r).
		PointsTo(p, x) :- Load(p, q), PointsTo(q, r), PointsTo(r, x).
		PointsTo(r, x) :- Store(p, q), PointsTo(p, r), PointsTo(q, x).

		% a tiny program:
		%   v1 = &h1; v2 = &h2; v3 = v1; *v1 = v2; v4 = *v3;
		AddrOf(1, 100).
		AddrOf(2, 200).
		Assign(3, 1).
		Store(1, 2).
		Load(4, 3).
	`)
	if err != nil {
		log.Fatal(err)
	}
	p := res.Program
	fmt.Println("constraint rules (bloated):")
	fmt.Print(p)

	min, trace, err := minimize.Program(context.Background(), p, minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFig. 2 removed %d redundant atom(s):\n", trace.AtomsRemoved())
	fmt.Print(min)

	edb := db.FromFacts(res.Facts)
	out, stats, err := eval.Eval(min, edb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull analysis (%d facts, %d rounds):\n", out.Len(), stats.Rounds)
	for _, f := range out.Facts() {
		if f.Pred == "PointsTo" {
			fmt.Printf("  %v\n", f)
		}
	}

	// Targeted query via magic sets: what does v4 point to? Only the
	// relevant part of the heap model is explored.
	query := ast.NewAtom("PointsTo", ast.IntTerm(4), ast.Var("x"))
	magicAns, magicStats, err := magic.Answer(min, edb, query)
	if err != nil {
		log.Fatal(err)
	}
	directAns, directStats, err := magic.DirectAnswer(min, edb, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npoints-to set of v4 (magic: %d derived facts; direct: %d):\n",
		magicStats.DerivedFacts, directStats.DerivedFacts)
	for _, t := range magicAns {
		fmt.Printf("  v4 -> %v\n", t[1])
	}
	if len(magicAns) != len(directAns) {
		log.Fatal("magic and direct disagree!")
	}
}
