// Package cq implements the conjunctive-query machinery that Section V
// cites as the solved, non-recursive special case of the paper's problem:
// containment and minimization of single non-recursive rules
// (Chandra–Merlin 1976; Aho–Sagiv–Ullman 1979) and containment in unions
// (Sagiv–Yannakakis 1980). For non-recursive rules these notions coincide
// with uniform containment, which makes this package both a fast path and
// an independent oracle for cross-checking the chase (experiment E10).
package cq

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
)

// CQ is a conjunctive query: a head atom over a body conjunction, i.e. a
// single non-recursive Datalog rule.
type CQ struct {
	Head ast.Atom
	Body []ast.Atom
}

// FromRule converts a rule to a CQ, rejecting negation.
func FromRule(r ast.Rule) (CQ, error) {
	if r.HasNegation() {
		return CQ{}, fmt.Errorf("cq: rule %s uses negation", r)
	}
	return CQ{Head: r.Head.Clone(), Body: cloneBody(r.Body)}, nil
}

// Rule converts the CQ back into a rule.
func (q CQ) Rule() ast.Rule { return ast.Rule{Head: q.Head.Clone(), Body: cloneBody(q.Body)} }

// Validate checks range restriction.
func (q CQ) Validate() error { return q.Rule().Validate() }

// String renders the CQ in rule notation.
func (q CQ) String() string { return q.Rule().String() }

func cloneBody(body []ast.Atom) []ast.Atom {
	out := make([]ast.Atom, len(body))
	for i, a := range body {
		out[i] = a.Clone()
	}
	return out
}

// freeze builds the canonical database of q: the body instantiated with
// distinct frozen constants, plus the frozen head and the binding used.
func freeze(q CQ) (ast.GroundAtom, *db.Database, ast.Binding) {
	gen := ast.NewFrozenGen(0)
	theta := ast.FreezeVars(ast.Rule{Head: q.Head, Body: q.Body}.Vars(), gen)
	head := q.Head.MustGround(theta)
	d := db.New()
	for _, a := range q.Body {
		d.Add(a.MustGround(theta))
	}
	return head, d, theta
}

// headPred holds the frozen head in a canonical database; no parsed
// predicate contains '@'.
const headPred = "cq@head"

// Homomorphism searches for a containment mapping h from `from` onto `to`:
// h maps from's variables to to's terms such that h(from.Head) = to.Head
// and every atom of h(from.Body) occurs in to.Body. It returns the mapping
// on success. By Chandra–Merlin, such an h exists iff to ⊑ from.
func Homomorphism(from, to CQ) (ast.Subst, bool) {
	if from.Head.Pred != to.Head.Pred || from.Head.Arity() != to.Head.Arity() {
		return nil, false
	}
	// Freeze `to` into its canonical DB; a homomorphism is then exactly a
	// match of from's head+body into the canonical head+DB. The frozen head
	// joins the DB under a reserved predicate, so from's head is one more
	// atom of the conjunction.
	toHead, d, theta := freeze(to)
	d.AddTuple(headPred, toHead.Args)
	atoms := append([]ast.Atom{{Pred: headPred, Args: from.Head.Args}}, from.Body...)
	conj := eval.LowerConj(atoms, nil)
	vars, frame := conj.Vars(), make([]ast.Const, len(conj.Vars()))
	if conj.Each(d, frame, new(eval.Stats), func() bool { return false }) {
		return nil, false // ran dry without a row
	}

	// Invert theta so matched frozen constants translate back to to's
	// variables.
	inv := make(map[ast.Const]string, len(theta))
	for v, c := range theta {
		inv[c] = v
	}
	h := make(ast.Subst, len(vars))
	for i, v := range vars {
		if name, ok := inv[frame[i]]; ok {
			h[v] = ast.Var(name)
		} else {
			h[v] = ast.Con(frame[i])
		}
	}
	return h, true
}

// Contained decides q1 ⊑ q2: every database gives q1 answers that are also
// q2 answers. By the Chandra–Merlin theorem this holds iff there is a
// homomorphism from q2 to q1.
func Contained(q1, q2 CQ) bool {
	_, ok := Homomorphism(q2, q1)
	return ok
}

// Equivalent decides q1 ≡ q2.
func Equivalent(q1, q2 CQ) bool {
	return Contained(q1, q2) && Contained(q2, q1)
}

// Minimize computes the core of q: a subquery with the fewest atoms that is
// equivalent to q (Chandra–Merlin: unique up to variable renaming). It
// repeatedly deletes a body atom when the shortened query still contains q
// — the non-recursive specialization of the paper's Fig. 1.
func Minimize(q CQ) CQ {
	cur := CQ{Head: q.Head.Clone(), Body: cloneBody(q.Body)}
	k := 0
	for k < len(cur.Body) {
		cand := CQ{Head: cur.Head, Body: removeAt(cur.Body, k)}
		// Deleting an atom relaxes the query (cur ⊑ cand always); keep the
		// deletion only when cand ⊑ cur, i.e. equivalence, and only when
		// the result is still range-restricted.
		if cand.Validate() == nil && Contained(cand, cur) {
			cur = cand
		} else {
			k++
		}
	}
	return cur
}

func removeAt(body []ast.Atom, i int) []ast.Atom {
	out := make([]ast.Atom, 0, len(body)-1)
	out = append(out, body[:i]...)
	out = append(out, body[i+1:]...)
	return out
}

// ContainedInUnion decides q ⊑ q1 ∪ … ∪ qn. For conjunctive queries a
// union containment holds iff some single disjunct contains q
// (Sagiv–Yannakakis).
func ContainedInUnion(q CQ, union []CQ) bool {
	for _, qi := range union {
		if Contained(q, qi) {
			return true
		}
	}
	return false
}

// UnionContained decides (∪ qs1) ⊑ (∪ qs2): every disjunct of qs1 is
// contained in the union qs2.
func UnionContained(qs1, qs2 []CQ) bool {
	for _, q := range qs1 {
		if !ContainedInUnion(q, qs2) {
			return false
		}
	}
	return true
}

// UnionEquivalent decides equivalence of two unions of conjunctive queries
// — the paper's Section X uses this notion for comparing initialization
// programs ("equivalence of non-recursive programs is the same as
// equivalence of unions of tableaux").
func UnionEquivalent(qs1, qs2 []CQ) bool {
	return UnionContained(qs1, qs2) && UnionContained(qs2, qs1)
}

// MinimizeUnion minimizes a union of conjunctive queries: each disjunct is
// replaced by its core, and disjuncts contained in the union of the others
// are removed (each considered once, mirroring the paper's Fig. 2 shape at
// the union level). The result is equivalent to the input union with no
// removable disjunct and no removable atom — the Sagiv–Yannakakis normal
// form for the non-recursive case the paper builds on.
func MinimizeUnion(union []CQ) []CQ {
	cur := make([]CQ, len(union))
	for i, q := range union {
		cur[i] = Minimize(q)
	}
	i := 0
	for i < len(cur) {
		rest := make([]CQ, 0, len(cur)-1)
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
