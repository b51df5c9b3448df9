// Package oracle holds the reference implementations the engine is tested
// against and ships none of: the nested-loops matcher over ast.Binding maps
// that every join in the tree once ran on and, searching through it, a tabled
// top-down evaluator (oracle/topdown) and the Chandra–Merlin homomorphism
// test for conjunctive queries (oracle/cq). The matcher uses internal/db's
// exported API only and shares no code with the operator pipeline of
// internal/eval, so the two cannot agree by sharing a bug. Only _test.go
// files may import this package or anything below it (TestStructure/one-join).
package oracle

import (
	"repro/internal/ast"
	"repro/internal/db"
)

// Constraint pairs an atom with the round window its matches must satisfy.
type Constraint struct {
	Atom   ast.Atom
	Window db.RoundWindow
}

// MatchAtom enumerates every extension of binding b that grounds atom into a
// live fact of d whose round stamp lies in the window: ids ascending when no
// column is bound, the index chain oldest first otherwise. For each extension
// it invokes f with b temporarily extended; the extension is undone before
// the next candidate. If f returns false the enumeration stops early and
// MatchAtom returns false.
func MatchAtom(d *db.Database, atom ast.Atom, w db.RoundWindow, b ast.Binding, f func() bool) bool {
	rel := d.Relation(atom.Pred)
	if rel == nil || rel.Arity() != len(atom.Args) {
		return true
	}
	var cols []int
	var key []ast.Const
	for i, t := range atom.Args {
		if !t.IsVar {
			cols, key = append(cols, i), append(key, t.Val)
		} else if c, ok := b[t.Name]; ok {
			cols, key = append(cols, i), append(key, c)
		}
	}
	try := func(id int) bool {
		if r := rel.RoundOf(id); r < w.Min || r > w.Max {
			return true
		}
		added, ok := atom.MatchGround(atom.Pred, rel.Tuple(id), b)
		if !ok {
			return true
		}
		cont := f()
		for _, v := range added {
			delete(b, v)
		}
		return cont
	}
	switch len(cols) {
	case 0:
		for id := 0; id < rel.Len(); id++ {
			if rel.Alive(id) && !try(id) {
				return false
			}
		}
	case len(atom.Args):
		if id, ok := rel.LookupID(key); ok {
			return try(int(id))
		}
	default:
		it := rel.Prober(cols, w.Max).Seek(key)
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			if !try(int(id)) {
				return false
			}
		}
	}
	return true
}

// MatchSeq enumerates every extension of b that simultaneously grounds all
// constraints into d (a left-to-right nested-loops join). f is invoked once
// per complete extension with b fully extended; returning false stops the
// enumeration. MatchSeq returns false iff some invocation of f did.
func MatchSeq(d *db.Database, cs []Constraint, b ast.Binding, f func() bool) bool {
	if len(cs) == 0 {
		return f()
	}
	return MatchAtom(d, cs[0].Atom, cs[0].Window, b, func() bool {
		return MatchSeq(d, cs[1:], b, f)
	})
}

// MatchConjunction enumerates every extension of b grounding all atoms into
// d with no round restriction.
func MatchConjunction(d *db.Database, atoms []ast.Atom, b ast.Binding, f func() bool) bool {
	cs := make([]Constraint, len(atoms))
	for i, a := range atoms {
		cs[i] = Constraint{Atom: a, Window: db.AllRounds}
	}
	return MatchSeq(d, cs, b, f)
}

// Satisfiable reports whether some extension of b grounds all atoms into d —
// the "can the right-hand side be instantiated" test of tgd satisfaction
// (Section VIII). b is not modified.
func Satisfiable(d *db.Database, atoms []ast.Atom, b ast.Binding) bool {
	found := false
	MatchConjunction(d, atoms, b.Clone(), func() bool {
		found = true
		return false
	})
	return found
}
