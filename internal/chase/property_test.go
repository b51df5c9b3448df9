package chase

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/eval"
	"repro/internal/workload"
)

// TestQuickUniformContainmentReflexive checks P ⊑ᵘ P on random programs.
func TestQuickUniformContainmentReflexive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		v, _, err := UniformlyContains(p, p)
		return err == nil && v == Yes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickUniformContainmentSound checks the semantic meaning: when the
// chase proves P₂ ⊑ᵘ P₁, the outputs really are contained on random
// inputs (including inputs with IDB facts — that is what "uniform" means).
func TestQuickUniformContainmentSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1 := workload.RandomProgram(rng, 1+rng.Intn(3))
		p2 := workload.RandomProgram(rng, 1+rng.Intn(3))
		if p1.Validate() != nil || p2.Validate() != nil {
			return true
		}
		v, _, err := UniformlyContains(p1, p2)
		if err != nil || v != Yes {
			return err == nil // nothing to verify on a "no"
		}
		// Verify on random DBs that may include IDB facts.
		for trial := 0; trial < 4; trial++ {
			d := workload.RandomDB(rng, p1, 4, 3)
			// Sprinkle IDB facts (uniform semantics).
			idbDB := workload.RandomDB(rng, workload.RandomProgram(rng, 1), 4, 2)
			d.AddAll(idbDB)
			o2, _, err := eval.Eval(p2, d)
			if err != nil {
				continue
			}
			o1, _, err := eval.Eval(p1, d)
			if err != nil {
				continue
			}
			if !o1.Contains(o2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickUniformContainmentTransitive checks transitivity of the
// preorder on random program triples.
func TestQuickUniformContainmentTransitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1 := workload.RandomProgram(rng, 1+rng.Intn(3))
		p2 := workload.RandomProgram(rng, 1+rng.Intn(3))
		p3 := workload.RandomProgram(rng, 1+rng.Intn(3))
		if p1.Validate() != nil || p2.Validate() != nil || p3.Validate() != nil {
			return true
		}
		v12, _, err1 := UniformlyContains(p2, p1) // p1 ⊑ᵘ p2
		v23, _, err2 := UniformlyContains(p3, p2) // p2 ⊑ᵘ p3
		if err1 != nil || err2 != nil {
			return false
		}
		if v12 != Yes || v23 != Yes {
			return true
		}
		v13, _, err := UniformlyContains(p3, p1)
		return err == nil && v13 == Yes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSupersetRulesContain checks that adding rules to a program
// yields a uniform superset (Example 5 generalized).
func TestQuickSupersetRulesContain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(3))
		if p.Validate() != nil {
			return true
		}
		sub := p.WithoutRule(rng.Intn(len(p.Rules)))
		v, _, err := UniformlyContains(p, sub)
		return err == nil && v == Yes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
