package chase

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// The θ-subsumption fast path may only ever force verdicts the chase would
// also reach. This oracle compares syntacticVerdict directly against a
// fresh goal-directed chase over random program/rule pairs, bypassing the
// verdict memo entirely so the two deciders cannot contaminate each other.
func TestSyntacticVerdictAgreesWithChase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	preds := []string{"Sp", "Sq", "Sr"}
	vars := []string{"x", "y", "z", "w"}
	randAtom := func() ast.Atom {
		args := make([]ast.Term, 2)
		for i := range args {
			if rng.Intn(6) == 0 {
				args[i] = ast.IntTerm(int64(rng.Intn(2)))
			} else {
				args[i] = ast.Var(vars[rng.Intn(len(vars))])
			}
		}
		return ast.NewAtom(preds[rng.Intn(len(preds))], args...)
	}
	randRule := func() (ast.Rule, bool) {
		r := ast.Rule{Head: randAtom()}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r.Body = append(r.Body, randAtom())
		}
		return r, r.Validate() == nil
	}

	forced, cases := 0, 0
	for trial := 0; trial < 400; trial++ {
		p := ast.NewProgram()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if r, ok := randRule(); ok {
				p.Rules = append(p.Rules, r)
			}
		}
		r, ok := randRule()
		if !ok || len(p.Rules) == 0 {
			continue
		}
		c, err := NewChecker(p)
		if err != nil {
			t.Fatal(err)
		}
		cases++
		if !c.syntacticVerdict(r, nil) {
			continue
		}
		forced++
		head, body := FreezeRule(r)
		_, reached, _, err := c.prep.Run(nil, body, &head, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reached {
			t.Fatalf("trial %d: fast path forced %s ⊑ᵘ %v but the chase refutes it",
				trial, r, p.Rules)
		}
	}
	if cases < 100 || forced < 10 {
		t.Fatalf("oracle undersampled: %d cases, %d forced verdicts", cases, forced)
	}
}

// Every rule is θ-subsumed by itself, so testing a program's own rules
// against its session never chases — the shape the Section XI candidate
// search hits on each unchanged rule of a probed program.
func TestFastPathSelfContainment(t *testing.T) {
	p := parser.MustParseProgram(`
		Fsp(x, z) :- Fse(x, z).
		Fsp(x, z) :- Fse(x, y), Fsp(y, z).
	`)
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Rules {
		ok, err := c.ContainsRule(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("program does not contain its own rule %s", r)
		}
	}
	if s := c.Stats(); s.VerdictsSubsumed != len(p.Rules) || s.VerdictsRecomputed != 0 {
		t.Fatalf("stats = %+v, want %d subsumed and 0 recomputed", s, len(p.Rules))
	}

	// A two-step path rule is contained but not θ-subsumed by any single
	// rule — it must reach the chase even with the fast path on.
	twoStep := parser.MustParseProgram(`Fsp(x, z) :- Fse(x, y), Fse(y, z).`).Rules[0]
	ok, err := c.ContainsRule(context.Background(), twoStep)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("chase refutes containment of %s", twoStep)
	}
	if s := c.Stats(); s.VerdictsRecomputed != 1 {
		t.Fatalf("stats = %+v, want exactly one chased verdict", s)
	}
}

// A rule whose head appears in its own body is a tautology: output contains
// input, so it is contained in any program without a chase.
func TestFastPathTautology(t *testing.T) {
	p := parser.MustParseProgram(`
		Ftp(x, z) :- Fte(x, z).
		Ftp(x, z) :- Fte(x, y), Ftp(y, z).
	`)
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	taut := parser.MustParseProgram(`Ftq(x, y) :- Ftq(x, y), Fte(x, x).`).Rules[0]
	ok, err := c.ContainsRule(context.Background(), taut)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("tautology not contained")
	}
	if s := c.Stats(); s.VerdictsSubsumed != 1 {
		t.Fatalf("stats = %+v, want one subsumed verdict", s)
	}
}

// SATContainsRule shares the fast path: an unchanged program rule needs no
// [P, T] chase regardless of the tgd set.
func TestFastPathSATContainsRule(t *testing.T) {
	p := parser.MustParseProgram(`
		Fxg(x, z) :- Fxa(x, z).
		Fxg(x, z) :- Fxa(x, y), Fxg(y, z).
	`)
	tgd := ast.TGD{
		Lhs: []ast.Atom{ast.NewAtom("Fxg", ast.Var("x"), ast.Var("z"))},
		Rhs: []ast.Atom{ast.NewAtom("Fxa", ast.Var("x"), ast.Var("w"))},
	}
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.SATContainsRule(context.Background(), []ast.TGD{tgd}, p.Rules[1], Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatalf("verdict = %v, want yes", v)
	}
	if s := c.Stats(); s.VerdictsSubsumed != 1 {
		t.Fatalf("stats = %+v, want one subsumed verdict", s)
	}
}
