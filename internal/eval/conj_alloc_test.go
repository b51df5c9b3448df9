//go:build !race

package eval

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/workload"
)

// Not under the race detector: it makes sync.Pool drop items at random, and
// the pooled executor state is then reallocated.

// TestConjEachAllocatesNothing pins the contract the tgd guard relies on: with
// a non-capturing yield, running a lowered conjunction allocates nothing.
func TestConjEachAllocatesNothing(t *testing.T) {
	d := workload.Chain("A", 64)
	c := LowerConj([]ast.Atom{ast.NewAtom("A", ast.Var("x"), ast.Var("y")), ast.NewAtom("A", ast.Var("y"), ast.Var("z"))}, []string{"x"})
	frame := make([]ast.Const, len(c.Vars()))
	frame[0] = ast.Int(3)
	var st Stats
	if n := testing.AllocsPerRun(50, func() { c.Each(d, frame, &st, func() bool { return true }) }); n != 0 {
		t.Fatalf("Conj.Each allocates %.0f times per run", n)
	}
	if frame[1] != ast.Int(4) || frame[2] != ast.Int(5) {
		t.Fatalf("frame after the run = %v", frame)
	}
}
