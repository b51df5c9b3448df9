package cq

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/minimize"
	"repro/internal/parser"
)

func mustRule(src string) ast.Rule { return parser.MustParseProgram(src).Rules[0] }

func TestContainmentBasics(t *testing.T) {
	// Q1: paths of length 2; Q2: any edge pair — Q1 ⊑ Q2? Q2's head needs
	// the same scheme. Classic: Q1(x,z) over A(x,y),A(y,z) is contained in
	// Q2(x,z) over A(x,y'),A(y'',z) (less constrained).
	q1 := mustRule("Q(x, z) :- A(x, y), A(y, z).")
	q2 := mustRule("Q(x, z) :- A(x, u), A(v, z).")
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
	q1 := mustRule("Q(x, z) :- A(x, y), A(y, z).")
	q2 := mustRule("Q(x, z) :- A(x, u), A(v, z).")
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
	spec := mustRule("Q(x) :- A(x, 3).")
	gen := mustRule("Q(x) :- A(x, y).")
	if !Contained(spec, gen) {
		t.Fatal("constant-specialized query not contained in general one")
	}
	if Contained(gen, spec) {
		t.Fatal("general query contained in specialized one")
	}
	other := mustRule("Q(x) :- A(x, 4).")
	if Contained(spec, other) || Contained(other, spec) {
		t.Fatal("queries over different constants comparable")
	}
}

func TestHeadMismatch(t *testing.T) {
	a := mustRule("Q(x) :- A(x, y).")
	b := mustRule("R(x) :- A(x, y).")
	if Contained(a, b) || Contained(b, a) {
		t.Fatal("different head predicates comparable")
	}
	c := mustRule("Q(x, x) :- A(x, y).")
	if Contained(a, c) {
		t.Fatal("different head arities comparable")
	}
}

func TestRepeatedHeadVariables(t *testing.T) {
	diag := mustRule("Q(x, x) :- A(x, x).")
	gen := mustRule("Q(x, y) :- A(x, y).")
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
	q := mustRule("Q(x) :- A(x, y), A(x, z).")
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
	core := mustRule("Q(x) :- A(x, y), A(y, z), A(z, x).")
	padded := mustRule("Q(x) :- A(x, y), A(y, z), A(z, x), A(x, w).")
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
	q := mustRule("Q(x, z) :- A(x, x), B(z).")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Fatalf("range restriction violated by minimization: %v", m)
	}
}

func TestUnionContainment(t *testing.T) {
	// q: length-2 path ⊑ {edge, length-2 path}; edge ⋢ {length-2 path}.
	edge := mustRule("Q(x, z) :- A(x, z).")
	path2 := mustRule("Q(x, z) :- A(x, y), A(y, z).")
	if !ContainedInUnion(path2, []ast.Rule{edge, path2}) {
		t.Fatal("member not contained in union")
	}
	if ContainedInUnion(edge, []ast.Rule{path2}) {
		t.Fatal("edge contained in length-2 path")
	}
	if !UnionEquivalent([]ast.Rule{edge, path2}, []ast.Rule{path2, edge}) {
		t.Fatal("permuted unions not equivalent")
	}
	// Adding a redundant disjunct keeps the union equivalent.
	padded := []ast.Rule{edge, path2, mustRule("Q(x, z) :- A(x, z), A(x, w).")}
	if !UnionEquivalent([]ast.Rule{edge, path2}, padded) {
		t.Fatal("union with subsumed disjunct not equivalent")
	}
}

func TestMinimizeUnion(t *testing.T) {
	edge := mustRule("Q(x, z) :- A(x, z).")
	path2 := mustRule("Q(x, z) :- A(x, y), A(y, z).")
	paddedEdge := mustRule("Q(x, z) :- A(x, z), A(x, w).")
	variant := mustRule("Q(u, v) :- A(u, v).")

	min := MinimizeUnion([]ast.Rule{edge, path2, paddedEdge, variant})
	// paddedEdge cores down to edge; edge/variant collapse to one; path2
	// survives (not contained in edge).
	if len(min) != 2 {
		t.Fatalf("MinimizeUnion left %d disjuncts: %v", len(min), min)
	}
	if !UnionEquivalent(min, []ast.Rule{edge, path2}) {
		t.Fatalf("minimized union inequivalent: %v", min)
	}
	// No removable disjunct remains.
	for i := range min {
		rest := append(append([]ast.Rule{}, min[:i]...), min[i+1:]...)
		if ContainedInUnion(min[i], rest) {
			t.Fatalf("disjunct %v still removable", min[i])
		}
	}
}

func TestMinimizeUnionSingletonAndEmpty(t *testing.T) {
	if got := MinimizeUnion(nil); len(got) != 0 {
		t.Fatalf("empty union: %v", got)
	}
	q := mustRule("Q(x) :- A(x, y), A(x, z).")
	min := MinimizeUnion([]ast.Rule{q})
	if len(min) != 1 || len(min[0].Body) != 1 {
		t.Fatalf("singleton union: %v", min)
	}
}

// randomCQRule is the generator of the retired experiment E10: a random
// non-recursive rule with k binary atoms over A and B and a six-variable
// pool, its one-term head a variable of the body.
func randomCQRule(rng *rand.Rand, k int) ast.Rule {
	vars := []string{"x", "y", "z", "u", "v", "w"}
	preds := []string{"A", "B"}
	body := make([]ast.Atom, k)
	for i := range body {
		body[i] = ast.NewAtom(preds[rng.Intn(len(preds))],
			ast.Var(vars[rng.Intn(len(vars))]),
			ast.Var(vars[rng.Intn(len(vars))]))
	}
	hv := body[rng.Intn(k)].Args[0]
	return ast.NewRule(ast.NewAtom("Q", hv), body...)
}

// TestCQAgreesWithChaseOnNonRecursiveRules is the agreement column of E10:
// for single non-recursive rules, uniform containment (Cor. 2's chase) and
// CQ containment (a homomorphism, Chandra–Merlin) are the same relation. The
// seed is k; the first 30 pairs of each k are E10's (TestE10FullAgreement
// checks those as E10 reported them). Random pairs of long
// bodies are rarely contained, so each r1 is also tested against r1 less one
// atom when that is well-formed: a weakening, which always contains it.
func TestCQAgreesWithChaseOnNonRecursiveRules(t *testing.T) {
	const pairs = 60
	for _, k := range []int{2, 4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(k)))
		tested, contained := 0, 0
		check := func(i int, r1, r2 ast.Rule) {
			t.Helper()
			want, err := chase.UniformlyContainsRule(ast.NewProgram(r2), r1)
			if err != nil {
				t.Fatal(err)
			}
			if got := Contained(r1, r2); got != want {
				t.Fatalf("seed %d, pair %d: cq %v, chase %v for\n%v\n%v", k, i, got, want, r1, r2)
			}
			tested++
			if want {
				contained++
			}
		}
		for i := 0; i < pairs; i++ {
			r1, r2 := randomCQRule(rng, k), randomCQRule(rng, k)
			check(i, r1, r2)
			if weak := r1.WithoutBodyAtom(i % k); weak.WellFormed() {
				check(i, r1, weak)
			}
		}
		t.Logf("k = %d (seed %d): %d pairs agree, %d of them contained", k, k, tested, contained)
	}
}

// TestE10FullAgreement is E10's last table, agreement column only: per k,
// seed k, the 30 pairs E10 drew, every one answered alike by the CQ oracle
// and the chase ("30/30").
func TestE10FullAgreement(t *testing.T) {
	const pairs = 30
	for _, k := range []int{2, 4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(k)))
		agree := 0
		for i := 0; i < pairs; i++ {
			r1, r2 := randomCQRule(rng, k), randomCQRule(rng, k)
			want, err := chase.UniformlyContainsRule(ast.NewProgram(r2), r1)
			if err != nil {
				t.Fatal(err)
			}
			if Contained(r1, r2) == want {
				agree++
			}
		}
		if agree != pairs {
			t.Errorf("CQ/chase disagreement at k=%d (seed %d): %d/%d", k, k, agree, pairs)
		}
	}
}

// randomQuery draws k binary atoms over A and B and a six-variable pool, with
// the odd constant, under a head Q of the given arity whose terms are body
// variables or, at times, a constant (a repeated head variable happens too).
func randomQuery(rng *rand.Rand, k, arity int) ast.Rule {
	vars := []string{"x", "y", "z", "u", "v", "w"}
	term := func() ast.Term {
		if rng.Intn(8) == 0 {
			return ast.IntTerm(int64(rng.Intn(2)))
		}
		return ast.Var(vars[rng.Intn(len(vars))])
	}
	q := ast.Rule{Body: make([]ast.Atom, k)}
	for i := range q.Body {
		q.Body[i] = ast.NewAtom([]string{"A", "B"}[rng.Intn(2)], term(), term())
	}
	head := make([]ast.Term, arity)
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

// TestHomomorphismReturnsContainmentMapping: a mapping Homomorphism returns
// really is one — it takes from's head to to's and every atom of from's body
// to an atom of to's. The seed names the failing pair.
func TestHomomorphismReturnsContainmentMapping(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(2)
		from, to := randomQuery(rng, 1+rng.Intn(4), arity), randomQuery(rng, 1+rng.Intn(5), arity)
		if rng.Intn(4) == 0 { // a weakening of to always maps into it
			from = ast.Rule{Head: to.Head, Body: to.Body[:1+rng.Intn(len(to.Body))]}
		}
		h, ok := Homomorphism(from, to)
		if !ok {
			continue
		}
		found++
		if !from.Head.Apply(h).Equal(to.Head) {
			t.Fatalf("seed %d: h = %v maps head %v to %v, not %v", seed, h, from.Head, from.Head.Apply(h), to.Head)
		}
		for _, a := range from.Body {
			img, hit := a.Apply(h), false
			for _, b := range to.Body {
				hit = hit || img.Equal(b)
			}
			if !hit {
				t.Fatalf("seed %d: h = %v maps %v to %v, not an atom of %v", seed, h, a, img, to)
			}
		}
	}
	if found < 100 {
		t.Fatalf("only %d of 400 pairs had a mapping: the generator no longer exercises Homomorphism", found)
	}
}

// TestMinimizeAgreesWithFig1 checks Thm. 2 against Sagiv–Yannakakis on the
// non-recursive fragment, where the minimal equivalent is unique up to
// renaming, so the counts below are exact:
//   - on a random single rule, Fig. 1 (minimize.Rule) keeps exactly as many
//     atoms as the CQ core;
//   - on a random one-IDB non-recursive program — a union of CQs — Fig. 2
//     (minimize.Program) keeps as many rules and as many atoms in all as
//     MinimizeUnion, and the two are equivalent unions.
//
// The seed names the failing case.
func TestMinimizeAgreesWithFig1(t *testing.T) {
	ctx := context.Background()
	removedAtoms, removedRules := 0, 0
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randomQuery(rng, 1+rng.Intn(5), 1+rng.Intn(2))
		fig1, _, err := minimize.Rule(ctx, r, minimize.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v: %v", seed, r, err)
		}
		if cqCore := Minimize(r); len(fig1.Body) != len(cqCore.Body) {
			t.Fatalf("seed %d: %v: Fig. 1 keeps %v, the core is %v", seed, r, fig1, cqCore)
		}
		removedAtoms += len(r.Body) - len(fig1.Body)

		arity := 1 + rng.Intn(2)
		p := ast.NewProgram()
		for n := 1 + rng.Intn(4); n > 0; n-- {
			p.Rules = append(p.Rules, randomQuery(rng, 1+rng.Intn(4), arity))
		}
		fig2, _, err := minimize.Program(ctx, p, minimize.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v: %v", seed, p, err)
		}
		sy := MinimizeUnion(p.Rules)
		if len(fig2.Rules) != len(sy) || atoms(fig2.Rules) != atoms(sy) || !UnionEquivalent(fig2.Rules, sy) {
			t.Fatalf("seed %d: Fig. 2 minimizes\n%sto\n%sSagiv–Yannakakis to\n%s", seed, p, fig2, ast.NewProgram(sy...))
		}
		removedRules += len(p.Rules) - len(fig2.Rules)
	}
	t.Logf("500 seeds: Fig. 1 removed %d atoms, Fig. 2 %d rules, all as the oracle did", removedAtoms, removedRules)
}

func atoms(rules []ast.Rule) int {
	n := 0
	for _, r := range rules {
		n += len(r.Body)
	}
	return n
}
