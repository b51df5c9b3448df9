package minimize_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/minimize"
	"repro/internal/parser"
)

// ExampleRule reproduces the paper's Examples 7–8: the Fig. 1 algorithm
// removes the redundant atom A(w,y).
func ExampleRule() {
	p, err := parser.ParseProgram(`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`)
	if err != nil {
		log.Fatal(err)
	}
	min, trace, err := minimize.Rule(context.Background(), p.Rules[0], minimize.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(min)
	fmt.Println("removed:", trace.AtomRemovals[0].Atom)
	// Output:
	// G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).
	// removed: A(w, y)
}
