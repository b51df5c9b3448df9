package explain_test

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/workload"
)

func TestCountingProverOutputMatchesEval(t *testing.T) {
	p := workload.TransitiveClosure()
	in := workload.Chain("A", 6)
	cp, err := explain.NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Output().Equal(eval.MustEval(p, in)) {
		t.Fatal("counting prover output differs from eval")
	}
}

func TestJustificationCounts(t *testing.T) {
	// On a 3-chain with doubled-TC: G(0,3) is justified by the base rule
	// never (not an A edge) and by the recursive rule via two split points
	// (y=1 and y=2).
	p := workload.TransitiveClosure()
	in := workload.Chain("A", 3)
	cp, err := explain.NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	g03 := ast.NewGroundAtom("G", ast.Int(0), ast.Int(3))
	if got := cp.Justifications(g03); got != 2 {
		t.Fatalf("G(0,3) justifications = %d, want 2", got)
	}
	// G(0,1) is justified once (base rule only).
	g01 := ast.NewGroundAtom("G", ast.Int(0), ast.Int(1))
	if got := cp.Justifications(g01); got != 1 {
		t.Fatalf("G(0,1) justifications = %d, want 1", got)
	}
	// Input facts and absent facts have none.
	if cp.Justifications(ast.NewGroundAtom("A", ast.Int(0), ast.Int(1))) != 0 {
		t.Fatal("input fact has justifications")
	}
	if cp.Justifications(ast.NewGroundAtom("G", ast.Int(3), ast.Int(0))) != 0 {
		t.Fatal("absent fact has justifications")
	}
}

// TestRedundancyMultipliesJustifications is the provenance rendition of
// the paper's join-reduction claim: a redundant body atom multiplies the
// justifications of the same facts, and Fig. 2 minimization removes
// exactly that duplicate work.
func TestRedundancyMultipliesJustifications(t *testing.T) {
	// G(x,w) is subsumed by G(x,y) (map w to y), so it is redundant under
	// UNIFORM equivalence and Fig. 2 removes it — while it stands, every
	// recursive firing is multiplied by the out-degree of x.
	bloated := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), G(x, w).
	`)
	min, _, err := minimize.Program(context.Background(), bloated, minimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := workload.Chain("A", 5)
	cpBloat, err := explain.NewProver(bloated, in)
	if err != nil {
		t.Fatal(err)
	}
	cpMin, err := explain.NewProver(min, in)
	if err != nil {
		t.Fatal(err)
	}
	if !cpBloat.Output().Equal(cpMin.Output()) {
		t.Fatal("programs differ semantically")
	}
	if cpBloat.TotalJustifications() <= cpMin.TotalJustifications() {
		t.Fatalf("redundant atom did not multiply justifications: %d vs %d",
			cpBloat.TotalJustifications(), cpMin.TotalJustifications())
	}
}
