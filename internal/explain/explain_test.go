package explain

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

func TestExplainInputFact(t *testing.T) {
	p := workload.TransitiveClosure()
	in := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2)})
	pr, err := NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := pr.Explain(ga("A", 1, 2))
	if !ok || !d.IsInput() || d.Size() != 1 || d.Depth() != 1 {
		t.Fatalf("input explanation: %v", d)
	}
}

func TestExplainDerivedFact(t *testing.T) {
	p := workload.TransitiveClosure()
	in := workload.Chain("A", 4) // A(0,1)..A(3,4)
	pr, err := NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	goal := ga("G", 0, 4)
	d, ok := pr.Explain(goal)
	if !ok {
		t.Fatal("G(0,4) not derivable")
	}
	if d.IsInput() || !d.Fact.Equal(goal) {
		t.Fatalf("root: %v", d)
	}
	// The proof must verify against the program and input.
	if err := Verify(p, in, d); err != nil {
		t.Fatalf("proof does not verify: %v\n%s", err, d)
	}
	// Leaves must all be input A-facts.
	var checkLeaves func(*Derivation)
	checkLeaves = func(n *Derivation) {
		if n.IsInput() {
			if n.Fact.Pred != "A" {
				t.Fatalf("leaf %v is not an A fact", n.Fact)
			}
			return
		}
		for _, prem := range n.Premises {
			checkLeaves(prem)
		}
	}
	checkLeaves(d)
}

func TestExplainAbsentFact(t *testing.T) {
	p := workload.TransitiveClosure()
	pr, err := NewProver(p, workload.Chain("A", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pr.Explain(ga("G", 2, 0)); ok {
		t.Fatal("explained an absent fact")
	}
}

func TestProverOutputMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := workload.TransitiveClosure()
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		in := workload.RandomDigraph("A", n, 2*n, int64(trial))
		pr, err := NewProver(p, in)
		if err != nil {
			t.Fatal(err)
		}
		want := eval.MustEval(p, in)
		if !pr.Output().Equal(want) {
			t.Fatalf("prover output differs from eval on trial %d", trial)
		}
		// Every derived fact has a verifying proof.
		for _, f := range want.Facts() {
			d, ok := pr.Explain(f)
			if !ok {
				t.Fatalf("no explanation for %v", f)
			}
			if err := Verify(p, in, d); err != nil {
				t.Fatalf("proof of %v invalid: %v", f, err)
			}
		}
	}
}

func TestExplainWithNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("Src", 1), ga("E", 1, 2), ga("Node", 1), ga("Node", 5),
	})
	pr, err := NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := pr.Explain(ga("Unreach", 5))
	if !ok {
		t.Fatal("Unreach(5) not derived")
	}
	// The positive premise is Node(5); negation has no premise node.
	if len(d.Premises) != 1 || !d.Premises[0].Fact.Equal(ga("Node", 5)) {
		t.Fatalf("premises: %v", d)
	}
	if err := Verify(p, in, d); err != nil {
		t.Fatalf("negation proof invalid: %v", err)
	}
	if _, ok := pr.Explain(ga("Unreach", 1)); ok {
		t.Fatal("Unreach(1) wrongly derived")
	}
}

func TestFormatting(t *testing.T) {
	p := workload.TransitiveClosure()
	in := workload.Chain("A", 2)
	pr, err := NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := pr.Explain(ga("G", 0, 2))
	if !ok {
		t.Fatal("G(0,2) missing")
	}
	s := d.Format(p, nil)
	if !strings.Contains(s, "G(0, 2)") || !strings.Contains(s, "[input]") || !strings.Contains(s, "rule") {
		t.Fatalf("Format:\n%s", s)
	}
	if d.String() == "" {
		t.Fatal("String empty")
	}
}

func TestVerifyRejectsTamperedProofs(t *testing.T) {
	p := workload.TransitiveClosure()
	in := workload.Chain("A", 3)
	pr, err := NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := pr.Explain(ga("G", 0, 3))

	// Tamper 1: change the root fact.
	bad := *d
	bad.Fact = ga("G", 0, 9)
	if err := Verify(p, in, &bad); err == nil {
		t.Fatal("tampered root accepted")
	}
	// Tamper 2: fabricate an input leaf.
	leaf := &Derivation{Fact: ga("A", 7, 8), RuleIndex: -1}
	if err := Verify(p, in, leaf); err == nil {
		t.Fatal("fabricated leaf accepted")
	}
	// Tamper 3: wrong rule index.
	bad2 := *d
	bad2.RuleIndex = 0
	if err := Verify(p, in, &bad2); err == nil {
		t.Fatal("wrong rule index accepted")
	}
}

func TestDerivationAcyclic(t *testing.T) {
	// Cyclic EDBs must still yield finite proofs.
	p := workload.TransitiveClosure()
	in := workload.Cycle("A", 5)
	pr, err := NewProver(p, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pr.Output().Facts() {
		d, ok := pr.Explain(f)
		if !ok {
			t.Fatalf("no explanation for %v", f)
		}
		if d.Size() > 1<<16 {
			t.Fatalf("suspiciously huge proof for %v", f)
		}
		if err := Verify(p, in, d); err != nil {
			t.Fatal(err)
		}
	}
}

// Justifications returns how many distinct rule instantiations derive the
// fact in the output (0 for pure input facts and absent facts); negated
// literals are read against the output.
func (pr *Prover) Justifications(fact ast.GroundAtom) int {
	n := 0
	pr.prep.Firings(pr.output, fact, pr.output.Round(), &pr.stats, func(int, []ast.Const) bool {
		n++
		return true
	})
	return n
}
