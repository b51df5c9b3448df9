package ast

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genAtom builds a random atom from raw fuzz inputs.
func genAtom(rng *rand.Rand) Atom {
	preds := []string{"A", "B", "G"}
	vars := []string{"x", "y", "z", "w"}
	n := 1 + rng.Intn(3)
	args := make([]Term, n)
	for i := range args {
		if rng.Intn(2) == 0 {
			args[i] = Var(vars[rng.Intn(len(vars))])
		} else {
			args[i] = IntTerm(int64(rng.Intn(5)))
		}
	}
	return Atom{Pred: preds[rng.Intn(len(preds))], Args: args}
}

func TestQuickApplyIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genAtom(rng)
		return a.Apply(Subst{}).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickApplyComposition(t *testing.T) {
	// Applying a ground substitution twice equals applying it once
	// (idempotence of grounding substitutions).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genAtom(rng)
		s := Subst{}
		for _, v := range []string{"x", "y", "z", "w"} {
			if rng.Intn(2) == 0 {
				s[v] = IntTerm(int64(rng.Intn(5)))
			}
		}
		once := a.Apply(s)
		twice := once.Apply(s)
		return once.Equal(twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRenameRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genAtom(rng)
		enc := a.Rename(func(v string) string { return v + "#" })
		dec := enc.Rename(func(v string) string { return v[:len(v)-1] })
		return dec.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickGroundAtomKeyInjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() GroundAtom {
			n := 1 + rng.Intn(3)
			args := make([]Const, n)
			for i := range args {
				switch rng.Intn(3) {
				case 0:
					args[i] = Int(int64(rng.Intn(8)) - 4)
				case 1:
					args[i] = FrozenConst(rng.Intn(4))
				default:
					args[i] = NullConst(rng.Intn(4))
				}
			}
			return GroundAtom{Pred: []string{"A", "B"}[rng.Intn(2)], Args: args}
		}
		g1, g2 := mk(), mk()
		return (g1.Key() == g2.Key()) == g1.Equal(g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatchGroundSelf(t *testing.T) {
	// An atom instantiated by a binding matches the instantiation, and the
	// match reproduces the binding on the atom's variables.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genAtom(rng)
		b := Binding{}
		for _, v := range a.Vars() {
			b[v] = Int(int64(rng.Intn(5)))
		}
		g := a.MustGround(b)
		got := Binding{}
		if _, ok := a.MatchGround(g.Pred, g.Args, got); !ok {
			return false
		}
		for _, v := range a.Vars() {
			if got[v] != b[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnifierIdempotent(t *testing.T) {
	// Once two atoms unify, the unified forms are syntactically equal and
	// re-unification is trivial.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := genAtom(rng), genAtom(rng)
		u := NewUnifier()
		if !u.UnifyAtoms(a, b) {
			return true // nothing to check
		}
		ua, ub := u.Apply(a), u.Apply(b)
		if !ua.Equal(ub) {
			return false
		}
		u2 := NewUnifier()
		return u2.UnifyAtoms(ua, ub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickFreezeOneToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := Rule{Head: genAtom(rng), Body: []Atom{genAtom(rng), genAtom(rng)}}
		// Force range restriction by making the head share body variables.
		if len(r.Head.Vars()) > 0 && len(VarsOfAtoms(r.Body)) == 0 {
			return true
		}
		gen := NewFrozenGen()
		theta := FreezeVars(r.Vars(), gen)
		seen := map[Const]bool{}
		for _, c := range theta {
			if seen[c] || !IsFrozen(c) {
				return false
			}
			seen[c] = true
		}
		return len(theta) == len(r.Vars())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBindingCloneIndependent(t *testing.T) {
	f := func(vals []uint8) bool {
		b := Binding{}
		for i, v := range vals {
			b[string(rune('a'+i%26))] = Int(int64(v))
		}
		c := b.Clone()
		if !reflect.DeepEqual(b, c) {
			return false
		}
		c["zz"] = Int(99)
		_, leaked := b["zz"]
		return !leaked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
