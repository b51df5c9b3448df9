package cq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
)

func randomCQ(rng *rand.Rand) ast.Rule {
	vars := []string{"x", "y", "z", "u", "v"}
	preds := []string{"A", "B"}
	n := 1 + rng.Intn(4)
	body := make([]ast.Atom, n)
	for i := range body {
		body[i] = ast.NewAtom(preds[rng.Intn(len(preds))],
			ast.Var(vars[rng.Intn(len(vars))]),
			ast.Var(vars[rng.Intn(len(vars))]))
	}
	return ast.Rule{
		Head: ast.NewAtom("Q", body[rng.Intn(n)].Args[0]),
		Body: body,
	}
}

func TestQuickContainmentReflexive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomCQ(rng)
		return Contained(q, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentTransitive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q1, q2, q3 := randomCQ(rng), randomCQ(rng), randomCQ(rng)
		if Contained(q1, q2) && Contained(q2, q3) {
			return Contained(q1, q3)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizeProperties(t *testing.T) {
	// The core is equivalent to the original, no larger, and idempotent.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomCQ(rng)
		m := Minimize(q)
		if len(m.Body) > len(q.Body) {
			return false
		}
		if !Equivalent(m, q) {
			return false
		}
		mm := Minimize(m)
		return len(mm.Body) == len(m.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddingAtomsShrinksQuery(t *testing.T) {
	// q with an extra atom is contained in q.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomCQ(rng)
		bigger := q.Clone()
		bigger.Body = append(bigger.Body, randomCQ(rng).Body[0])
		return Contained(bigger, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
