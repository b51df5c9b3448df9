package chase

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

func TestIsBudgetErr(t *testing.T) {
	if !isBudgetErr(eval.ErrBudget) {
		t.Fatal("direct ErrBudget not recognized")
	}
	if !isBudgetErr(fmt.Errorf("wrap: %w", eval.ErrBudget)) {
		t.Fatal("wrapped ErrBudget not recognized")
	}
	if isBudgetErr(fmt.Errorf("other")) {
		t.Fatal("unrelated error recognized")
	}
}

func TestChaseApplyWithProgramAndTgds(t *testing.T) {
	// The full Example 11 chase: program + tgd together derive the frozen
	// head of the doubled rule from its frozen body, and the chase reaches
	// a fixpoint (nulls stop breeding once every G atom has an A witness).
	pa := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	tgds := []ast.TGD{parser.MustParseTGD("G(x, z) -> A(x, w).")}
	head, body := FreezeRule(p1().Rules[1])
	res, err := Apply(pa, tgds, body, Budget{MaxAtoms: 2000, MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DB.Has(head) {
		t.Fatalf("frozen head missing from [P,T] closure (complete=%v):\n%v", res.Complete, res.DB)
	}
}

func TestDefaultBudgetNormalization(t *testing.T) {
	b := Budget{}.OrDefault()
	if b.MaxAtoms != DefaultBudget.MaxAtoms || b.MaxRounds != DefaultBudget.MaxRounds {
		t.Fatalf("orDefault = %+v", b)
	}
	b = Budget{MaxAtoms: 5}.OrDefault()
	if b.MaxAtoms != 5 || b.MaxRounds != DefaultBudget.MaxRounds {
		t.Fatalf("partial orDefault = %+v", b)
	}
}

func TestStratifiedUniformContainment(t *testing.T) {
	// A duplicated negated literal makes the rule uniformly contained in
	// its single-literal form, and vice versa.
	p1 := parser.MustParseProgram(`
		Dead(x) :- Node(x), !Reach(x).
		Reach(x) :- Src(x).
	`)
	p2 := parser.MustParseProgram(`
		Dead(x) :- Node(x), !Reach(x), !Reach(x).
		Reach(x) :- Src(x).
	`)
	v, _, err := UniformlyContains(p1, p2)
	if err != nil || v != Yes {
		t.Fatalf("duplicate-literal containment: %v %v", v, err)
	}
	v, _, err = UniformlyContains(p2, p1)
	if err != nil || v != Yes {
		t.Fatalf("converse containment: %v %v", v, err)
	}

	// Dropping the negated literal is NOT uniformly sound: the rule without
	// the check derives more. The encoded test cannot refute it, so it
	// answers Unknown, never No.
	p3 := parser.MustParseProgram(`
		Dead(x) :- Node(x).
		Reach(x) :- Src(x).
	`)
	v, witness, err := UniformlyContains(p2, p3)
	if err != nil {
		t.Fatal(err)
	}
	if v != Unknown {
		t.Fatalf("negation check dropped: verdict %v, want unknown", v)
	}
	if witness != 0 {
		t.Fatalf("witness = %d", witness)
	}

	// A containment that needs a case split on C is true but not shown:
	// Unknown again, not No.
	split := parser.MustParseProgram(`
		A(x) :- B(x), !C(x).
		A(x) :- B(x), C(x).
	`)
	v, _, err = UniformlyContains(split, parser.MustParseProgram(`A(x) :- B(x).`))
	if err != nil || v != Unknown {
		t.Fatalf("case split: %v %v, want unknown", v, err)
	}

	// Pure programs agree with the plain test.
	tc1 := p1d()
	v, _, err = UniformlyContains(tc1, tc1.Clone())
	if err != nil || v != Yes {
		t.Fatalf("pure fallback: %v %v", v, err)
	}
}

// p1d avoids clashing with the p1 helper in chase_test.go.
func p1d() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
}

// TestExactTestsRefuseNegation: every test of Section VIII — the [P, T]
// chase and the SAT(T) containments built on it — answers ErrNegation, not
// a verdict, when either side has negation, while uniform containment
// decides the same programs through the encoding: Yes or Unknown, never No.
func TestExactTestsRefuseNegation(t *testing.T) {
	neg := parser.MustParseProgram(`A(x) :- B(x), !C(x).`)
	pure := parser.MustParseProgram(`A(x) :- B(x).`)
	tgd := parser.MustParseTGD("B(x) -> D(x).")
	ck, err := NewChecker(neg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ck.ContainsRule(context.Background(), neg.Rules[0]); err != nil || !ok {
		t.Fatalf("stratified session: %v %v, want true", ok, err)
	}
	pureCk, err := NewChecker(pure)
	if err != nil {
		t.Fatal(err)
	}
	v1, _, e1 := UniformlyContains(neg, pure)
	v2, _, e2 := UniformlyContains(pure, neg)
	v3, _, e3 := UniformlyContains(neg, ast.NewProgram())
	v4, e4 := UniformlyEquivalent(pure, neg)
	for i, c := range []struct {
		got, want Verdict
		err       error
	}{{v1, Unknown, e1}, {v2, Yes, e2}, {v3, Yes, e3}, {v4, Unknown, e4}} {
		if c.err != nil || c.got != c.want {
			t.Errorf("containment %d: %v, %v; want %v", i+1, c.got, c.err, c.want)
		}
	}
	_, e6 := SATContainsRule(neg, []ast.TGD{tgd}, pure.Rules[0], Budget{})
	_, e7 := pureCk.SATContainsRule(context.Background(), []ast.TGD{tgd}, neg.Rules[0], Budget{})
	_, e8 := ck.SATContainsRule(context.Background(), []ast.TGD{tgd}, pure.Rules[0], Budget{})
	_, e9 := ck.Apply(context.Background(), []ast.TGD{tgd}, db.New(), Budget{})
	_, e10 := SATModelsContained(neg, []ast.TGD{tgd}, pure, Budget{})
	_, e11 := SATModelsContained(neg, []ast.TGD{tgd}, ast.NewProgram(), Budget{})
	_, e12 := ck.SATModelsContained(context.Background(), []ast.TGD{tgd}, ast.NewProgram(), Budget{})
	for i, err := range []error{e6, e7, e8, e9, e10, e11, e12} {
		if !errors.Is(err, ErrNegation) {
			t.Errorf("entry point %d: err = %v, want ErrNegation", i+6, err)
		}
	}
}

// TestNegationEncodingCollision: a program with negation whose own predicate
// carries the encoding's prefix — only a Go-built program can spell one, the
// parser refuses '@' — is refused by NewChecker, which names the predicate.
func TestNegationEncodingCollision(t *testing.T) {
	p := ast.NewProgram(ast.Rule{
		Head:    ast.NewAtom("A", ast.Var("x")),
		Body:    []ast.Atom{ast.NewAtom(negPrefix+"Q", ast.Var("x"))},
		NegBody: []ast.Atom{ast.NewAtom("C", ast.Var("x"))},
	})
	_, err := NewChecker(p)
	if err == nil || !strings.HasPrefix(err.Error(), "chase: ") || !strings.Contains(err.Error(), negPrefix+"Q") {
		t.Fatalf("NewChecker = %v, want a chase: error naming %sQ", err, negPrefix)
	}
}
