// Package cq is the Chandra–Merlin oracle: containment and minimization of
// conjunctive queries — single non-recursive, negation-free rules — by
// homomorphism search (Chandra–Merlin 1976; Aho–Sagiv–Ullman 1979), and
// containment in unions of them (Sagiv–Yannakakis 1980). Section V cites
// these as the solved, non-recursive special case of the paper's problem: on
// that fragment uniform containment coincides with CQ containment, so the
// chase's verdicts and Fig. 1–2's minimized programs are tested against it.
// Only this package's own tests call it, so it is test code throughout. It
// searches with the binding-map matcher of package oracle and shares no code
// with internal/eval.
package cq

import (
	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/oracle"
)

// Homomorphism searches for a containment mapping h from `from` onto `to`:
// h maps from's variables to to's terms such that h(from.Head) = to.Head
// and every atom of h(from.Body) occurs in to.Body. It returns the mapping
// on success. By Chandra–Merlin, such an h exists iff to ⊑ from. Both rules
// are read as conjunctive queries: negated literals are not looked at.
func Homomorphism(from, to ast.Rule) (ast.Subst, bool) {
	// Freeze `to` into its canonical database; a homomorphism is then a match
	// of from's head onto the frozen head, extended to a match of from's body
	// into the frozen body.
	head, body, theta := to.Freeze(ast.NewFrozenGen())
	b := ast.Binding{}
	if _, ok := from.Head.MatchGround(head.Pred, head.Args, b); !ok {
		return nil, false
	}
	d := db.New()
	for _, g := range body {
		d.Add(g)
	}
	// Invert theta so matched frozen constants translate back to to's
	// variables.
	inv := make(map[ast.Const]string, len(theta))
	for v, c := range theta {
		inv[c] = v
	}
	var h ast.Subst
	oracle.MatchConjunction(d, from.Body, b, func() bool {
		h = make(ast.Subst, len(b))
		for v, c := range b {
			if name, ok := inv[c]; ok {
				h[v] = ast.Var(name)
			} else {
				h[v] = ast.Con(c)
			}
		}
		return false
	})
	return h, h != nil
}

// Contained decides q1 ⊑ q2: every database gives q1 answers that are also
// q2 answers. By the Chandra–Merlin theorem this holds iff there is a
// homomorphism from q2 to q1.
func Contained(q1, q2 ast.Rule) bool {
	_, ok := Homomorphism(q2, q1)
	return ok
}

// Equivalent decides q1 ≡ q2.
func Equivalent(q1, q2 ast.Rule) bool {
	return Contained(q1, q2) && Contained(q2, q1)
}

// Minimize computes the core of q: a subquery with the fewest atoms that is
// equivalent to q (Chandra–Merlin: unique up to variable renaming). It
// repeatedly deletes a body atom when the shortened query still contains q.
func Minimize(q ast.Rule) ast.Rule {
	cur := q.Clone()
	k := 0
	for k < len(cur.Body) {
		// Deleting an atom relaxes the query (cur ⊑ cand always); keep the
		// deletion only when cand ⊑ cur, i.e. equivalence, and only when
		// the result is still range-restricted.
		if cand := cur.WithoutBodyAtom(k); cand.WellFormed() && Contained(cand, cur) {
			cur = cand
		} else {
			k++
		}
	}
	return cur
}

// ContainedInUnion decides q ⊑ q1 ∪ … ∪ qn. For conjunctive queries a
// union containment holds iff some single disjunct contains q
// (Sagiv–Yannakakis).
func ContainedInUnion(q ast.Rule, union []ast.Rule) bool {
	for _, qi := range union {
		if Contained(q, qi) {
			return true
		}
	}
	return false
}

// UnionEquivalent decides equivalence of two unions of conjunctive queries:
// every disjunct of each is contained in the other union.
func UnionEquivalent(qs1, qs2 []ast.Rule) bool {
	contained := func(qs, in []ast.Rule) bool {
		for _, q := range qs {
			if !ContainedInUnion(q, in) {
				return false
			}
		}
		return true
	}
	return contained(qs1, qs2) && contained(qs2, qs1)
}

// MinimizeUnion minimizes a union of conjunctive queries: each disjunct is
// replaced by its core, and disjuncts contained in the union of the others
// are removed, each considered once. The result is the Sagiv–Yannakakis
// normal form — unique up to renaming and the order of disjuncts — against
// which Fig. 2's output on a non-recursive program is checked.
func MinimizeUnion(union []ast.Rule) []ast.Rule {
	cur := make([]ast.Rule, len(union))
	for i, q := range union {
		cur[i] = Minimize(q)
	}
	i := 0
	for i < len(cur) {
		rest := make([]ast.Rule, 0, len(cur)-1)
		rest = append(rest, cur[:i]...)
		rest = append(rest, cur[i+1:]...)
		if ContainedInUnion(cur[i], rest) {
			cur = rest
		} else {
			i++
		}
	}
	return cur
}
