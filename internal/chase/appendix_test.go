package chase

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

// repairToSAT closes a random database under the tgds (the pure-tgd chase),
// yielding a member of SAT(T) to sample relative containment on. Returns
// nil if the chase did not complete in budget.
func repairToSAT(d *db.Database, tgds []ast.TGD) *db.Database {
	res, err := Apply(ast.NewProgram(), tgds, d, Budget{MaxAtoms: 4000, MaxRounds: 4000})
	if err != nil || !res.Complete {
		return nil
	}
	return res.DB
}

// TestLemma2Sampling checks the appendix's Lemma 2 direction operationally:
// when SAT(T) ∩ M(P₁) ⊆ M(P₂) is proved by the chase AND P₁ preserves T,
// then P₂(d) ⊆ P₁(d) for every d ∈ SAT(T). We sample SAT(T) by chasing
// random databases with T.
func TestLemma2Sampling(t *testing.T) {
	// The Example 11 configuration, where all conditions are known to hold.
	p1 := workload.TransitiveClosureGuarded()
	p2 := workload.TransitiveClosure()
	tgds := []ast.TGD{parser.MustParseTGD("G(x, z) -> A(x, w).")}

	v, err := SATModelsContained(p1, tgds, p2, Budget{})
	if err != nil || v != Yes {
		t.Fatalf("precondition failed: %v %v", v, err)
	}

	rng := rand.New(rand.NewSource(51))
	sampled := 0
	for trial := 0; trial < 25; trial++ {
		raw := db.New()
		n := 2 + rng.Intn(4)
		for e := 0; e < 2*n; e++ {
			raw.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{
				ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))}})
			if rng.Intn(2) == 0 {
				raw.Add(ast.GroundAtom{Pred: "G", Args: []ast.Const{
					ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))}})
			}
		}
		d := repairToSAT(raw, tgds)
		if d == nil {
			continue
		}
		sampled++
		o2 := eval.MustEval(p2, d)
		o1 := eval.MustEval(p1, d)
		if !o1.Contains(o2) {
			t.Fatalf("trial %d: P2(d) ⊄ P1(d) on SAT(T) member\n%s", trial, d)
		}
	}
	if sampled < 10 {
		t.Fatalf("too few SAT(T) samples: %d", sampled)
	}
}

// TestRelativeContainmentNotAbsolute confirms the same pair is NOT
// contained outside SAT(T): on a DB violating the tgd, P₂ can out-derive
// P₁ — this is exactly why the paper needs the SAT(T)-relative notion.
func TestRelativeContainmentNotAbsolute(t *testing.T) {
	p1 := workload.TransitiveClosureGuarded()
	p2 := workload.TransitiveClosure()
	// G edges with NO A witnesses violate the tgd; P2 composes them, P1
	// cannot (its recursive rule demands A(y,w)).
	d := db.FromFacts([]ast.GroundAtom{
		{Pred: "G", Args: []ast.Const{ast.Int(1), ast.Int(2)}},
		{Pred: "G", Args: []ast.Const{ast.Int(2), ast.Int(3)}},
	})
	o2 := eval.MustEval(p2, d)
	o1 := eval.MustEval(p1, d)
	if o1.Contains(o2) {
		t.Fatal("containment held outside SAT(T); the relative notion would be pointless")
	}
}

// TestUniformContainmentIsSATWithEmptyT sanity-checks that the relative
// test degenerates to plain uniform containment when T is empty, across
// random program pairs.
func TestUniformContainmentIsSATWithEmptyT(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		p1 := workload.RandomProgram(rng, 1+rng.Intn(3))
		p2 := workload.RandomProgram(rng, 1+rng.Intn(3))
		if p1.Validate() != nil || p2.Validate() != nil {
			continue
		}
		plain, _, err := UniformlyContains(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		v, err := SATModelsContained(p1, nil, p2, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if v != plain {
			t.Fatalf("trial %d: SAT(∅) verdict %v, uniform %v", trial, v, plain)
		}
	}
}
