package ast

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func genTGD(rng *rand.Rand) TGD {
	n := 1 + rng.Intn(2)
	m := 1 + rng.Intn(2)
	lhs := make([]Atom, n)
	rhs := make([]Atom, m)
	for i := range lhs {
		lhs[i] = genAtom(rng)
	}
	for i := range rhs {
		rhs[i] = genAtom(rng)
	}
	return TGD{Lhs: lhs, Rhs: rhs}
}

func TestQuickTGDQuantifierPartition(t *testing.T) {
	// Universal and existential variables partition the tgd's variables:
	// disjoint, and together covering every variable.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tau := genTGD(rng)
		univ := map[string]bool{}
		for _, v := range tau.UniversalVars() {
			univ[v] = true
		}
		for _, v := range tau.ExistentialVars() {
			if univ[v] {
				return false // overlap
			}
		}
		all := map[string]bool{}
		for _, v := range VarsOfAtoms(append(append([]Atom{}, tau.Lhs...), tau.Rhs...)) {
			all[v] = true
		}
		covered := len(tau.UniversalVars()) + len(tau.ExistentialVars())
		return covered == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTGDFullIffNoExistentials(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tau := genTGD(rng)
		return tau.IsFull() == (len(tau.ExistentialVars()) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTGDRenameCloneStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tau := genTGD(rng)
		c := tau.Clone()
		if tau.String() != c.String() {
			return false
		}
		// Rename with an invertible function round-trips.
		enc := tau.Rename(func(v string) string { return v + "#" })
		dec := enc.Rename(func(v string) string { return v[:len(v)-1] })
		return dec.String() == tau.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
