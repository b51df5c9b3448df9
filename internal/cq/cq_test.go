package cq

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/minimize"
	"repro/internal/oracle"
	"repro/internal/parser"
)

func mustCQ(t *testing.T, src string) CQ {
	t.Helper()
	q, err := FromRule(parser.MustParseProgram(src).Rules[0])
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestContainmentBasics(t *testing.T) {
	// Q1: paths of length 2; Q2: any edge pair — Q1 ⊑ Q2? Q2's head needs
	// the same scheme. Classic: Q1(x,z) over A(x,y),A(y,z) is contained in
	// Q2(x,z) over A(x,y'),A(y'',z) (less constrained).
	q1 := mustCQ(t, "Q(x, z) :- A(x, y), A(y, z).")
	q2 := mustCQ(t, "Q(x, z) :- A(x, u), A(v, z).")
	if !Contained(q1, q2) {
		t.Fatal("q1 ⊑ q2 not detected")
	}
	if Contained(q2, q1) {
		t.Fatal("q2 ⊑ q1 wrongly detected")
	}
	if Equivalent(q1, q2) {
		t.Fatal("inequivalent queries reported equivalent")
	}
	if !Equivalent(q1, q1) {
		t.Fatal("query not equivalent to itself")
	}
}

func TestHomomorphismMapping(t *testing.T) {
	q1 := mustCQ(t, "Q(x, z) :- A(x, y), A(y, z).")
	q2 := mustCQ(t, "Q(x, z) :- A(x, u), A(v, z).")
	h, ok := Homomorphism(q2, q1)
	if !ok {
		t.Fatal("no homomorphism q2 -> q1")
	}
	// h must map q2's head vars to q1's head vars and u,v into q1 terms.
	if h["x"].Name != "x" || h["z"].Name != "z" {
		t.Fatalf("head mapping wrong: %v", h)
	}
	if h["u"].Name != "y" || h["v"].Name != "y" {
		t.Fatalf("body mapping wrong: %v", h)
	}
}

func TestContainmentWithConstants(t *testing.T) {
	spec := mustCQ(t, "Q(x) :- A(x, 3).")
	gen := mustCQ(t, "Q(x) :- A(x, y).")
	if !Contained(spec, gen) {
		t.Fatal("constant-specialized query not contained in general one")
	}
	if Contained(gen, spec) {
		t.Fatal("general query contained in specialized one")
	}
	other := mustCQ(t, "Q(x) :- A(x, 4).")
	if Contained(spec, other) || Contained(other, spec) {
		t.Fatal("queries over different constants comparable")
	}
}

func TestHeadMismatch(t *testing.T) {
	a := mustCQ(t, "Q(x) :- A(x, y).")
	b := mustCQ(t, "R(x) :- A(x, y).")
	if Contained(a, b) || Contained(b, a) {
		t.Fatal("different head predicates comparable")
	}
	c := mustCQ(t, "Q(x, x) :- A(x, y).")
	if Contained(a, c) {
		t.Fatal("different head arities comparable")
	}
}

func TestRepeatedHeadVariables(t *testing.T) {
	diag := mustCQ(t, "Q(x, x) :- A(x, x).")
	gen := mustCQ(t, "Q(x, y) :- A(x, y).")
	if !Contained(diag, gen) {
		t.Fatal("diagonal not contained in general")
	}
	if Contained(gen, diag) {
		t.Fatal("general contained in diagonal")
	}
}

func TestMinimizeClassic(t *testing.T) {
	// The standard redundant-join example: A(x,y),A(x,z) minimizes to one
	// atom (map z to y).
	q := mustCQ(t, "Q(x) :- A(x, y), A(x, z).")
	m := Minimize(q)
	if len(m.Body) != 1 {
		t.Fatalf("Minimize left %d atoms: %v", len(m.Body), m)
	}
	if !Equivalent(m, q) {
		t.Fatal("minimized query not equivalent")
	}
}

func TestMinimizeCore(t *testing.T) {
	// Triangle query with a redundant pendant: A(x,y),A(y,z),A(z,x) is a
	// core; adding A(x,w) is redundant.
	core := mustCQ(t, "Q(x) :- A(x, y), A(y, z), A(z, x).")
	padded := mustCQ(t, "Q(x) :- A(x, y), A(y, z), A(z, x), A(x, w).")
	m := Minimize(padded)
	if len(m.Body) != 3 {
		t.Fatalf("padded triangle minimized to %d atoms: %v", len(m.Body), m)
	}
	if !Equivalent(m, core) {
		t.Fatal("minimized padded triangle not equivalent to core")
	}
	// The core itself is untouched.
	if got := Minimize(core); len(got.Body) != 3 {
		t.Fatalf("core shrunk: %v", got)
	}
}

func TestMinimizeKeepsRangeRestriction(t *testing.T) {
	q := mustCQ(t, "Q(x, z) :- A(x, x), B(z).")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Fatalf("range restriction violated by minimization: %v", m)
	}
}

func TestUnionContainment(t *testing.T) {
	// q: length-2 path ⊑ {edge, length-2 path}; edge ⋢ {length-2 path}.
	edge := mustCQ(t, "Q(x, z) :- A(x, z).")
	path2 := mustCQ(t, "Q(x, z) :- A(x, y), A(y, z).")
	if !ContainedInUnion(path2, []CQ{edge, path2}) {
		t.Fatal("member not contained in union")
	}
	if ContainedInUnion(edge, []CQ{path2}) {
		t.Fatal("edge contained in length-2 path")
	}
	if !UnionEquivalent([]CQ{edge, path2}, []CQ{path2, edge}) {
		t.Fatal("permuted unions not equivalent")
	}
	// Adding a redundant disjunct keeps the union equivalent.
	padded := []CQ{edge, path2, mustCQ(t, "Q(x, z) :- A(x, z), A(x, w).")}
	if !UnionEquivalent([]CQ{edge, path2}, padded) {
		t.Fatal("union with subsumed disjunct not equivalent")
	}
}

func TestCQAgreesWithChaseOnNonRecursiveRules(t *testing.T) {
	// Independent-oracle property (experiment E10): for non-recursive
	// single rules, CQ containment coincides with uniform containment.
	rng := rand.New(rand.NewSource(42))
	preds := []string{"A", "B"}
	randomRule := func() ast.Rule {
		vars := []string{"x", "y", "z", "w"}
		n := 1 + rng.Intn(3)
		body := make([]ast.Atom, n)
		used := map[string]bool{}
		for i := range body {
			v1 := vars[rng.Intn(len(vars))]
			v2 := vars[rng.Intn(len(vars))]
			used[v1], used[v2] = true, true
			body[i] = ast.NewAtom(preds[rng.Intn(len(preds))], ast.Var(v1), ast.Var(v2))
		}
		// Head uses a variable guaranteed to be in the body.
		var hv string
		for v := range used {
			hv = v
			break
		}
		return ast.NewRule(ast.NewAtom("Q", ast.Var(hv)), body...)
	}
	for trial := 0; trial < 60; trial++ {
		r1 := randomRule()
		r2 := randomRule()
		q1, _ := FromRule(r1)
		q2, _ := FromRule(r2)
		cqAns := Contained(q1, q2)
		chaseAns, err := chase.UniformlyContainsRule(ast.NewProgram(r2), r1)
		if err != nil {
			t.Fatal(err)
		}
		if cqAns != chaseAns {
			t.Fatalf("trial %d: cq=%v chase=%v for\n%v\n%v", trial, cqAns, chaseAns, r1, r2)
		}
	}
}

func TestMinimizeAgreesWithFig1(t *testing.T) {
	// On non-recursive rules the Fig. 1 minimizer and the CQ core coincide
	// in atom count (results are unique up to renaming there).
	srcs := []string{
		"Q(x) :- A(x, y), A(x, z).",
		"Q(x) :- A(x, y), A(y, z), A(z, x), A(x, w).",
		"Q(x, z) :- A(x, x), B(z).",
		"Q(x) :- A(x, 3), A(x, y).",
	}
	for _, src := range srcs {
		r := parser.MustParseProgram(src).Rules[0]
		q, _ := FromRule(r)
		mcq := Minimize(q)
		mr, _, err := minimize.Rule(context.Background(), r, minimize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(mcq.Body) != len(mr.Body) {
			t.Fatalf("%s: cq core %d atoms, Fig.1 %d atoms", src, len(mcq.Body), len(mr.Body))
		}
	}
}

func TestFromRuleRejectsNegation(t *testing.T) {
	r := parser.MustParseProgram("P(x) :- A(x), !B(x).").Rules[0]
	if _, err := FromRule(r); err == nil {
		t.Fatal("negation accepted")
	}
}

func TestMinimizeUnion(t *testing.T) {
	edge := mustCQ(t, "Q(x, z) :- A(x, z).")
	path2 := mustCQ(t, "Q(x, z) :- A(x, y), A(y, z).")
	paddedEdge := mustCQ(t, "Q(x, z) :- A(x, z), A(x, w).")
	variant := mustCQ(t, "Q(u, v) :- A(u, v).")

	min := MinimizeUnion([]CQ{edge, path2, paddedEdge, variant})
	// paddedEdge cores down to edge; edge/variant collapse to one; path2
	// survives (not contained in edge).
	if len(min) != 2 {
		t.Fatalf("MinimizeUnion left %d disjuncts: %v", len(min), min)
	}
	if !UnionEquivalent(min, []CQ{edge, path2}) {
		t.Fatalf("minimized union inequivalent: %v", min)
	}
	// No removable disjunct remains.
	for i := range min {
		rest := append(append([]CQ{}, min[:i]...), min[i+1:]...)
		if ContainedInUnion(min[i], rest) {
			t.Fatalf("disjunct %v still removable", min[i])
		}
	}
}

func TestMinimizeUnionSingletonAndEmpty(t *testing.T) {
	if got := MinimizeUnion(nil); len(got) != 0 {
		t.Fatalf("empty union: %v", got)
	}
	q := mustCQ(t, "Q(x) :- A(x, y), A(x, z).")
	min := MinimizeUnion([]CQ{q})
	if len(min) != 1 || len(min[0].Body) != 1 {
		t.Fatalf("singleton union: %v", min)
	}
}

// randomWideCQ draws a query like randomCQ and the harness's randomCQRule — k
// binary atoms over A and B and a small variable pool — with the odd constant,
// and a head of one or two terms (a repeated variable or a constant among them
// at times): what the head pre-binding of Homomorphism has to get right.
func randomWideCQ(rng *rand.Rand, k int) CQ {
	vars := []string{"x", "y", "z", "u", "v", "w"}
	term := func() ast.Term {
		if rng.Intn(8) == 0 {
			return ast.IntTerm(int64(rng.Intn(2)))
		}
		return ast.Var(vars[rng.Intn(len(vars))])
	}
	q := CQ{Body: make([]ast.Atom, k)}
	for i := range q.Body {
		q.Body[i] = ast.NewAtom([]string{"A", "B"}[rng.Intn(2)], term(), term())
	}
	head := make([]ast.Term, 1+rng.Intn(2))
	for i := range head {
		if bv := ast.VarsOfAtoms(q.Body); len(bv) > 0 && rng.Intn(6) > 0 {
			head[i] = ast.Var(bv[rng.Intn(len(bv))])
		} else {
			head[i] = ast.IntTerm(int64(rng.Intn(2)))
		}
	}
	q.Head = ast.NewAtom("Q", head...)
	return q
}

// TestHomomorphismMatchesOracle: a containment mapping exists exactly when
// the oracle matcher grounds from's head and body into to's frozen head and
// body, and a mapping returned really is one. The seed names the failing
// pair.
func TestHomomorphismMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		from, to := randomWideCQ(rng, 1+rng.Intn(4)), randomWideCQ(rng, 1+rng.Intn(5))
		if rng.Intn(4) == 0 { // a weakening of to always maps into it
			from = CQ{Head: to.Head, Body: to.Body[:1+rng.Intn(len(to.Body))]}
		}
		want := false
		if from.Head.Arity() == to.Head.Arity() {
			toHead, d, _ := freeze(to)
			b := ast.Binding{}
			if _, ok := from.Head.MatchGround(toHead.Pred, toHead.Args, b); ok {
				want = !oracle.MatchConjunction(d, from.Body, b, func() bool { return false })
			}
		}
		h, got := Homomorphism(from, to)
		if got != want {
			t.Fatalf("seed %d: Homomorphism(%v, %v) = %v, oracle %v", seed, from, to, got, want)
		}
		if !got {
			continue
		}
		if !from.Head.Apply(h).Equal(to.Head) {
			t.Fatalf("seed %d: h = %v maps head %v to %v, not %v", seed, h, from.Head, from.Head.Apply(h), to.Head)
		}
		for _, a := range from.Body {
			img, found := a.Apply(h), false
			for _, b := range to.Body {
				found = found || img.Equal(b)
			}
			if !found {
				t.Fatalf("seed %d: h = %v maps %v to %v, not an atom of %v", seed, h, a, img, to)
			}
		}
	}
}
