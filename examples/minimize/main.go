// Minimization under uniform equivalence: the Figs. 1–2 algorithms on the
// paper's Example 7/8 rule and on a program with redundant rules.
//
// Run with: go run ./examples/minimize
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/chase"
	"repro/internal/minimize"
	"repro/internal/parser"
)

func main() {
	ctx := context.Background()

	// --- Fig. 1 on the Example 7 rule -----------------------------------
	p1, err := parser.ParseProgram(`
		G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).
	`)
	if err != nil {
		log.Fatal(err)
	}
	minRule, trace, err := minimize.Rule(ctx, p1.Rules[0], minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 7/8 — minimizing a single rule (Fig. 1):")
	fmt.Printf("  before: %v\n", p1.Rules[0])
	fmt.Printf("  after:  %v\n", minRule)
	for _, ar := range trace.AtomRemovals {
		fmt.Printf("  removed atom %v (uniform equivalence preserved)\n", ar.Atom)
	}

	// --- Fig. 2 on a program with redundancy at both levels -------------
	p2, err := parser.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		G(x, z) :- A(x, y), G(y, z).       % redundant rule
		H(x)    :- G(x, y), G(x, w).       % redundant atom G(x,w)
	`)
	if err != nil {
		log.Fatal(err)
	}
	minProg, trace2, err := minimize.Program(ctx, p2, minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFig. 2 — minimizing a whole program:")
	fmt.Println("  before:")
	fmt.Print(indent(p2.String()))
	fmt.Println("  after:")
	fmt.Print(indent(minProg.String()))
	fmt.Printf("  removed %d atoms and %d rules\n", trace2.AtomsRemoved(), trace2.RulesRemoved())

	// The result is uniformly equivalent to the original — verify it.
	eq, err := chase.UniformlyEquivalent(p2, minProg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  uniformly equivalent to the original: %v\n", eq == chase.Yes)
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
