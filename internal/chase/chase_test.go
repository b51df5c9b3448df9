package chase

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
)

// p1 is Example 1: transitive closure with the doubled recursive rule.
func p1() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
}

// p2 is Example 4: the right-linear transitive closure.
func p2() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
}

func TestExample6UniformContainment(t *testing.T) {
	// P2 ⊑ᵘ P1 holds; P1 ⊑ᵘ P2 fails on the rule G(x,z) :- G(x,y), G(y,z).
	v, _, err := UniformlyContains(p1(), p2())
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatal("Example 6: P2 ⊑ᵘ P1 not proved")
	}
	v, witness, err := UniformlyContains(p2(), p1())
	if err != nil {
		t.Fatal(err)
	}
	if v != No {
		t.Fatal("Example 6: P1 ⊑ᵘ P2 not refuted")
	}
	if witness != 1 {
		t.Fatalf("witness rule index = %d, want 1 (the doubled rule)", witness)
	}
}

func TestExample5SubsetOfRules(t *testing.T) {
	// P2 = P1 + extra rule uniformly contains P1.
	p2 := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		A(x, z) :- A(x, y), G(y, z).
	`)
	v, _, err := UniformlyContains(p2, p1())
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatal("Example 5: P1 ⊑ᵘ P2 not proved")
	}
	// And not conversely: the extra rule is not contained in P1.
	v, _, err = UniformlyContains(p1(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if v != No {
		t.Fatal("Example 5 converse not refuted")
	}
}

func TestExample7RedundantAtom(t *testing.T) {
	// P1: G(x,y,z) :- G(x,w,z), A(w,y), A(w,z), A(z,z), A(z,y).
	// P2: same without A(w,y). The paper shows P1 ≡ᵘ P2.
	pa := parser.MustParseProgram(`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`)
	pb := parser.MustParseProgram(`G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).`)
	eq, err := UniformlyEquivalent(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if eq != Yes {
		t.Fatal("Example 7: P1 ≡ᵘ P2 not proved")
	}
}

func TestUniformEquivalenceNegative(t *testing.T) {
	eq, err := UniformlyEquivalent(p1(), p2())
	if err != nil {
		t.Fatal(err)
	}
	if eq != No {
		t.Fatal("Example 4 programs not refuted uniformly equivalent")
	}
}

func TestSelfContainment(t *testing.T) {
	for _, p := range []*ast.Program{p1(), p2()} {
		eq, err := UniformlyEquivalent(p, p.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if eq != Yes {
			t.Fatal("program not uniformly equivalent to itself")
		}
	}
}

func TestFreezeRule(t *testing.T) {
	r := p1().Rules[1]
	head, d := FreezeRule(r)
	if d.Len() != 2 {
		t.Fatalf("frozen body has %d facts", d.Len())
	}
	if !ast.IsFrozen(head.Args[0]) || !ast.IsFrozen(head.Args[1]) {
		t.Fatalf("frozen head has non-frozen constants: %v", head)
	}
	if d.Has(head) {
		t.Fatal("frozen head already in frozen body")
	}
	// The frozen head and body are Rule.Freeze's, constant for constant and
	// in fact order, with repeated atoms, constants and a ground head among
	// the inputs.
	for _, src := range []string{
		`G(x, z) :- A(x, y), G(y, z), A(x, y), B(z, 3).`,
		`G(z, z) :- A(y, 1), B(x, z).`,
		`G(1) :- A(1, 2).`,
	} {
		r := parser.MustParseProgram(src).Rules[0]
		head, d := FreezeRule(r)
		wantHead, body, _ := r.Freeze(ast.NewFrozenGen())
		if !head.Equal(wantHead) || d.String() != db.FromFacts(body).String() {
			t.Fatalf("%s: FreezeRule gave %v / %s, Rule.Freeze %v / %v", src, head, d, wantHead, body)
		}
	}
}

// TestUniformContainmentNegationNeverNo: a one-rule containment with
// negation on either side is tested through the encoding, which cannot
// refute, so a miss is Unknown rather than No (or an error).
func TestUniformContainmentNegationNeverNo(t *testing.T) {
	neg := parser.MustParseProgram(`P(x) :- A(x, y), !B(x).`)
	for i, pair := range [][2]*ast.Program{
		{neg, ast.NewProgram(p1().Rules[0])},
		{p1(), neg},
	} {
		if v, w, err := UniformlyContains(pair[0], pair[1]); err != nil || v != Unknown || w != 0 {
			t.Errorf("pair %d: %v witness %d, %v; want unknown witness 0", i, v, w, err)
		}
	}
}

func TestApplyFullTgd(t *testing.T) {
	// A full tgd behaves like rules (Example 10).
	tgd := parser.MustParseTGD("A(x, y) -> B(y, x).")
	d := db.FromFacts([]ast.GroundAtom{
		ast.NewGroundAtom("A", ast.Int(1), ast.Int(2)),
	})
	res, err := Apply(ast.NewProgram(), []ast.TGD{tgd}, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("full-tgd chase did not complete")
	}
	if !res.DB.Has(ast.NewGroundAtom("B", ast.Int(2), ast.Int(1))) {
		t.Fatalf("tgd did not fire: %v", res.DB)
	}
}

func TestApplyEmbeddedTgdAddsNulls(t *testing.T) {
	// G(3,2) with tgd G(x,y) -> A(x,w), G(w,y): adds A(3,δ) and G(δ,2)
	// (the Section VIII illustration), then chases the new G atom once more.
	tgd := parser.MustParseTGD("G(x, y) -> A(x, w), G(w, y).")
	d := db.FromFacts([]ast.GroundAtom{
		ast.NewGroundAtom("G", ast.Int(3), ast.Int(2)),
	})
	res, err := Apply(ast.NewProgram(), []ast.TGD{tgd}, d, Budget{MaxAtoms: 50, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	// This chase does not terminate (each new G atom violates the tgd
	// afresh), so the budget must cut it off.
	if res.Complete {
		t.Fatal("non-terminating chase reported complete")
	}
	foundNullA := false
	for _, g := range res.DB.Facts() {
		if g.Pred == "A" && g.Args[0] == ast.Int(3) && ast.IsNull(g.Args[1]) {
			foundNullA = true
		}
	}
	if !foundNullA {
		t.Fatalf("no A(3,δ) in chase result:\n%v", res.DB)
	}
}

func TestApplyTgdNotFiredWhenSatisfied(t *testing.T) {
	// DB already satisfying the tgd stays unchanged.
	tgd := parser.MustParseTGD("G(x, y) -> A(x, w).")
	d := db.FromFacts([]ast.GroundAtom{
		ast.NewGroundAtom("G", ast.Int(1), ast.Int(2)),
		ast.NewGroundAtom("A", ast.Int(1), ast.Int(9)),
	})
	res, err := Apply(ast.NewProgram(), []ast.TGD{tgd}, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.DB.Len() != 2 {
		t.Fatalf("satisfied tgd fired: %v", res.DB)
	}
}

func TestExample11SATContainment(t *testing.T) {
	// P1: G :- A | G :- G,G,A(y,w);  P2: G :- A | G :- G,G.
	// With T = {G(x,z) -> A(x,w)}: SAT(T) ∩ M(P1) ⊆ M(P2).
	pa := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	pb := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	tgds := []ast.TGD{parser.MustParseTGD("G(x, z) -> A(x, w).")}
	v, err := SATModelsContained(pa, tgds, pb, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatalf("Example 11: verdict %v, want yes", v)
	}
	// Without the tgd the containment fails (Example 6 said so).
	v, err = SATModelsContained(pa, nil, pb, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if v != No {
		t.Fatalf("without tgd: verdict %v, want no", v)
	}
}

func TestSATContainsRuleUnknownOnTinyBudget(t *testing.T) {
	// An embedded tgd that never satisfies the goal but keeps generating
	// nulls: with a tiny budget the verdict must be Unknown, not No.
	pa := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	tgds := []ast.TGD{parser.MustParseTGD("A(x, y) -> A(y, w).")}
	r := parser.MustParseProgram(`B(x) :- A(x, y), Z(x).`).Rules[0]
	v, err := SATContainsRule(pa, tgds, r, Budget{MaxAtoms: 8, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v != Unknown {
		t.Fatalf("verdict %v, want unknown", v)
	}
}

func TestSATModelsContainedNoBeatsUnknown(t *testing.T) {
	// One rule definitively refuted makes the whole answer No even if
	// another rule would exhaust the budget.
	pa := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	tgds := []ast.TGD{parser.MustParseTGD("A(x, y) -> A(y, w).")}
	pb := parser.MustParseProgram(`
		B(x) :- A(x, y), Z(x).
		G(x, y) :- Q(x, y).
	`)
	v, err := SATModelsContained(pa, tgds, pb, Budget{MaxAtoms: 8, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Rule B(x) :- ... is Unknown under this budget, but G(x,y) :- Q(x,y)
	// completes its chase and is refuted, so the answer is No.
	if v != No {
		t.Fatalf("verdict %v, want no", v)
	}
}

func TestVerdictString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Fatal("Verdict.String wrong")
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	tgd := parser.MustParseTGD("G(x, y) -> A(x, w).")
	d := db.FromFacts([]ast.GroundAtom{ast.NewGroundAtom("G", ast.Int(1), ast.Int(2))})
	if _, err := Apply(ast.NewProgram(), []ast.TGD{tgd}, d, Budget{}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatal("Apply mutated its input")
	}
}

func TestUniformContainmentWithConstants(t *testing.T) {
	// Rules with constants freeze correctly: G(x,3) :- A(x,3) is uniformly
	// contained in G(x,z) :- A(x,z) but not conversely.
	gen := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	spec := parser.MustParseProgram(`G(x, 3) :- A(x, 3).`)
	v, _, err := UniformlyContains(gen, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v != Yes {
		t.Fatal("specialized rule not contained in general rule")
	}
	v, _, err = UniformlyContains(spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	if v != No {
		t.Fatal("general rule not refuted contained in specialized rule")
	}
}
