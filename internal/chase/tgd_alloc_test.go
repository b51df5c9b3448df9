//go:build !race

package chase_test

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/workload"
)

// Not under the race detector: it makes sync.Pool drop items at random, and
// the kernel's pooled executor state is then reallocated per guard run.

// TestSatisfiesAllocsIndependentOfTriggers pins the per-trigger cost of the
// guard at zero allocations: checking n already-satisfied triggers allocates
// what checking a handful does (the lowering and one frame per tgd), where
// the binding-map path cloned a map per trigger.
func TestSatisfiesAllocsIndependentOfTriggers(t *testing.T) {
	tgds := []ast.TGD{ast.NewTGD(
		[]ast.Atom{ast.NewAtom("A", ast.Var("x"), ast.Var("y"))},
		[]ast.Atom{ast.NewAtom("A", ast.Var("y"), ast.Var("z"))})}
	allocs := func(n int) float64 {
		d := workload.Cycle("A", n) // every A(x, y) has its A(y, z)
		if !chase.Satisfies(d, tgds) {
			t.Fatalf("cycle of %d does not satisfy %v", n, tgds)
		}
		return testing.AllocsPerRun(20, func() { chase.Satisfies(d, tgds) })
	}
	small, large := allocs(16), allocs(16000)
	if large > small+2 {
		t.Fatalf("Satisfies allocates %.0f times over 16 triggers and %.0f over 16,000: O(n), want O(1)", small, large)
	}
}

// TestSATContainsRuleAllocs pins what a full-set SATContainsRule on a warm
// Checker allocates: the tgd set's memo is looked up by its key rendered into
// the Checker's scratch buffer, which allocates nothing, where rendering the
// set into a fresh string cost 18 more allocations, 86 in all.
func TestSATContainsRuleAllocs(t *testing.T) {
	p := parser.MustParseProgram("G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z).")
	tgds := []ast.TGD{
		parser.MustParseTGD("A(x, y) -> B(y, x)."),
		parser.MustParseTGD("B(x, y), B(y, z) -> C(x, z)."),
	}
	r := parser.MustParseProgram("G(x, z) :- A(x, y), B(z, y).").Rules[0]
	c, err := chase.NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	sat := func() {
		if v, err := c.SATContainsRule(context.Background(), tgds, r, chase.Budget{}); err != nil || v != chase.No {
			t.Fatalf("SATContainsRule = %v, %v; want no", v, err)
		}
	}
	sat()
	const want = 74
	if n := testing.AllocsPerRun(50, sat); n > want {
		t.Fatalf("a full-set SATContainsRule allocates %.0f times, want at most %d", n, want)
	}
}
