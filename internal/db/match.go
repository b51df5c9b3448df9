package db

import (
	"math"

	"repro/internal/ast"
)

// AllRounds is a round window accepting every tuple.
var AllRounds = RoundWindow{Min: 0, Max: math.MaxInt32}

// RoundWindow restricts a match to tuples whose round stamp falls within
// [Min, Max]. Semi-naive evaluation uses windows to aim one body atom at the
// newest facts (the Δ of the last round) and the remaining atoms at older
// strata.
type RoundWindow struct {
	Min, Max int32
}

// Contains reports whether round falls within the window.
func (w RoundWindow) Contains(round int32) bool {
	return round >= w.Min && round <= w.Max
}

// Constraint pairs an atom with the round window its matches must satisfy.
type Constraint struct {
	Atom   ast.Atom
	Window RoundWindow
}

// MatchAtom enumerates every extension of binding b that grounds atom into a
// fact of d whose round stamp lies in the window. For each extension it
// invokes f with b temporarily extended; the extension is undone before the
// next candidate. If f returns false the enumeration stops early and
// MatchAtom returns false.
func MatchAtom(d *Database, atom ast.Atom, w RoundWindow, b ast.Binding, f func() bool) bool {
	rel := d.rels[atom.Pred]
	if rel == nil || rel.arity != len(atom.Args) {
		return true
	}
	// Determine the bound columns under b, in small stack buffers so the
	// probe path allocates nothing for ordinary arities.
	var colsBuf [16]int
	var keyBuf [16]ast.Const
	cols, key := colsBuf[:0], keyBuf[:0]
	for i, t := range atom.Args {
		if !t.IsVar {
			cols = append(cols, i)
			key = append(key, t.Val)
		} else if c, ok := b[t.Name]; ok {
			cols = append(cols, i)
			key = append(key, c)
		}
	}
	try := func(id int32) bool {
		if !w.Contains(rel.RoundOf(int(id))) {
			return true
		}
		added, ok := atom.MatchGround(atom.Pred, rel.Tuple(int(id)), b)
		if !ok {
			return true
		}
		cont := f()
		for _, v := range added {
			delete(b, v)
		}
		return cont
	}
	if len(cols) == 0 {
		for id := 0; id < rel.Len(); id++ {
			if rel.Alive(id) && !try(int32(id)) {
				return false
			}
		}
		return true
	}
	if len(cols) == len(atom.Args) {
		// Fully bound: a single dedup-table probe suffices.
		id, ok := rel.lookupID(key)
		if !ok {
			return true
		}
		return try(id)
	}
	it := rel.Prober(cols, w.Max).Seek(key)
	for id, ok := it.Next(); ok; id, ok = it.Next() {
		if !try(id) {
			return false
		}
	}
	return true
}

// MatchSeq enumerates every extension of b that simultaneously grounds all
// constraints into d (a left-to-right nested-loops join). f is invoked once
// per complete extension with b fully extended; returning false stops the
// enumeration. MatchSeq returns false iff some invocation of f did.
func MatchSeq(d *Database, cs []Constraint, b ast.Binding, f func() bool) bool {
	if len(cs) == 0 {
		return f()
	}
	return MatchAtom(d, cs[0].Atom, cs[0].Window, b, func() bool {
		return MatchSeq(d, cs[1:], b, f)
	})
}

// MatchConjunction enumerates every extension of b grounding all atoms into
// d with no round restriction.
func MatchConjunction(d *Database, atoms []ast.Atom, b ast.Binding, f func() bool) bool {
	cs := make([]Constraint, len(atoms))
	for i, a := range atoms {
		cs[i] = Constraint{Atom: a, Window: AllRounds}
	}
	return MatchSeq(d, cs, b, f)
}

// Satisfiable reports whether some extension of b grounds all atoms into d.
// It is the "can the right-hand side be instantiated" test used when
// checking tgd satisfaction (Section VIII).
func Satisfiable(d *Database, atoms []ast.Atom, b ast.Binding) bool {
	found := false
	MatchConjunction(d, atoms, b.Clone(), func() bool {
		found = true
		return false
	})
	return found
}

// OrderForJoin returns a copy of atoms reordered greedily so that each next
// atom shares as many bound variables as possible with the prefix (and
// ground/constant-rich atoms come early). This keeps the nested-loops join
// from degenerating on bodies written in an unfavourable order; it is a
// heuristic, not an optimizer.
func OrderForJoin(atoms []ast.Atom, bound map[string]bool) []ast.Atom {
	return OrderForJoinSized(atoms, bound, nil)
}

// OrderForJoinSized is OrderForJoin with a cardinality oracle: among atoms
// with equal boundness the one over the smaller relation goes first.
// sizeOf may be nil (ties break on source order).
func OrderForJoinSized(atoms []ast.Atom, bound map[string]bool, sizeOf func(pred string) int) []ast.Atom {
	perm := OrderPermSized(atoms, bound, sizeOf)
	out := make([]ast.Atom, len(atoms))
	for j, i := range perm {
		out[j] = atoms[i]
	}
	return out
}

// OrderPermSized computes the same greedy join order as OrderForJoinSized
// but returns it as a permutation of atom indexes (out[j] = source index of
// the atom evaluated j-th) instead of a reordered copy. The prepared
// evaluation layer uses the permutation as a cache key: rounds whose live
// cardinalities induce the same order can share one compiled rule set.
func OrderPermSized(atoms []ast.Atom, bound map[string]bool, sizeOf func(pred string) int) []int {
	n := len(atoms)
	if n <= 1 {
		return make([]int, n) // nothing to order
	}
	out := make([]int, 0, n)
	used := make([]bool, n)
	boundVars := make(map[string]bool, len(bound))
	for v := range bound {
		boundVars[v] = true
	}
	for len(out) < n {
		best, bestScore, bestSize := -1, -1, 0
		for i, a := range atoms {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if !t.IsVar || boundVars[t.Name] {
					score += 2
				}
			}
			size := 0
			if sizeOf != nil {
				size = sizeOf(a.Pred)
			}
			// Prefer more-bound atoms; among equals, smaller relations;
			// tie-break on original order for determinism (strict > / <
			// keep the earliest best).
			if score > bestScore || (score == bestScore && sizeOf != nil && size < bestSize) {
				best, bestScore, bestSize = i, score, size
			}
		}
		used[best] = true
		out = append(out, best)
		for _, t := range atoms[best].Args {
			if t.IsVar {
				boundVars[t.Name] = true
			}
		}
	}
	return out
}

// Select returns the tuples of d matching the query atom's pattern
// (constants filter, repeated variables must agree, every column is
// returned), in the relation's insertion order. The rows are copies.
func Select(d *Database, query ast.Atom) [][]ast.Const {
	var rows [][]ast.Const
	b := ast.Binding{}
	MatchAtom(d, query, AllRounds, b, func() bool {
		rows = append(rows, query.MustGround(b).Args)
		return true
	})
	return rows
}
