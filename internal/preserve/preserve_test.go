package preserve

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
)

func tgds(srcs ...string) []ast.TGD {
	out := make([]ast.TGD, len(srcs))
	for i, s := range srcs {
		out[i] = parser.MustParseTGD(s)
	}
	return out
}

func TestExample13And14Preservation(t *testing.T) {
	// Example 14: P1 preserves T = {G(x,z) -> A(x,w)} non-recursively.
	// (Example 13 is the recursive-rule combination of the same check.)
	p1 := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	v, cex, err := Check(p1, tgds("G(x, z) -> A(x, w)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("Example 14: verdict %v (cex: %v)", v, cex)
	}
}

func TestExample15TwoAtomLHS(t *testing.T) {
	// r: G(x,z) :- G(x,y), G(y,z), A(y,w) preserves
	// τ: G(x,y) ∧ G(y,z) -> A(y,w); all four combinations pass.
	r := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z), A(y, w).`)
	v, cex, err := Check(r, tgds("G(x, y), G(y, z) -> A(y, w)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("Example 15: verdict %v (cex: %v)", v, cex)
	}
}

func TestExample16(t *testing.T) {
	// r: G(x,z) :- A(x,y), G(y,z), G(y,w), C(w) preserves
	// τ: G(y,z) -> G(y,w) ∧ C(w).
	r := parser.MustParseProgram(`G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).`)
	v, cex, err := Check(r, tgds("G(y, z) -> G(y, w), C(w)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("Example 16: verdict %v (cex: %v)", v, cex)
	}
}

func TestNonPreservationDetected(t *testing.T) {
	// Pure transitive closure does NOT preserve "every G edge has a
	// parallel A edge": composing two G edges loses the A witness.
	p := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z).`)
	v, cex, err := Check(p, tgds("G(x, y) -> A(x, y)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("verdict %v, want no", v)
	}
	if cex == nil || len(cex.LHS) != 1 || cex.LHS[0].Pred != "G" {
		t.Fatalf("counterexample malformed: %v", cex)
	}
	// The counterexample's d really satisfies the tgd set and really
	// exhibits the violation after one application of p: sanity-check the
	// shape (two chained G atoms with their A witnesses).
	if cex.DB.Relation("G") == nil || cex.DB.Relation("G").Len() != 2 {
		t.Fatalf("counterexample DB unexpected:\n%v", cex.DB)
	}
}

func TestEmbeddedNonTerminationGivesUnknown(t *testing.T) {
	// τ2 keeps inventing new nulls, so the inner chase of d never reaches a
	// fixpoint and the violation of τ1 never resolves: budget → Unknown.
	p := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z).`)
	T := tgds("G(x, y) -> B(x, y).", "B(x, y) -> B(y, z).")
	v, _, err := Check(p, T, Options{Budget: chase.Budget{MaxAtoms: 40, MaxRounds: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Unknown {
		t.Fatalf("verdict %v, want unknown", v)
	}
}

func TestExample18PreliminarySatisfies(t *testing.T) {
	p1 := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	v, cex, err := CheckPreliminary(p1, tgds("G(x, z) -> A(x, w)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("Example 18 (3′): verdict %v (cex: %v)", v, cex)
	}
}

func TestExample19PreliminarySatisfies(t *testing.T) {
	p1 := parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(z).
		G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).
	`)
	v, cex, err := CheckPreliminary(p1, tgds("G(y, z) -> G(y, w), C(w)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("Example 19 (3′): verdict %v (cex: %v)", v, cex)
	}
}

func TestPreliminaryViolationDetected(t *testing.T) {
	// Init rule G(x,z) :- A(x,z) does not guarantee C(z), so the
	// preliminary DB can violate G(x,z) -> C(z).
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	v, cex, err := CheckPreliminary(p, tgds("G(x, z) -> C(z)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("verdict %v, want no", v)
	}
	if cex == nil {
		t.Fatal("missing counterexample")
	}
}

func TestRepeatedVariableHeadSoundness(t *testing.T) {
	// The refinement over the paper's ground-unification presentation: with
	// the init rule G(z,z) :- B(z), the LHS G(x,y) only matches collapsed
	// instances; ground unification against distinct constants would miss
	// them and wrongly report preservation. The mgu-level procedure finds
	// the violation of G(x,y) -> A(x).
	p := parser.MustParseProgram(`G(z, z) :- B(z).`)
	v, cex, err := CheckPreliminary(p, tgds("G(x, y) -> A(x)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("repeated-variable head: verdict %v, want no", v)
	}
	if cex == nil || cex.LHS[0].Args[0] != cex.LHS[0].Args[1] {
		t.Fatalf("counterexample should collapse x and y: %v", cex)
	}
	// And the satisfied variant passes.
	p2 := parser.MustParseProgram(`G(z, z) :- B(z), A(z).`)
	v, _, err = CheckPreliminary(p2, tgds("G(x, y) -> A(x)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("satisfied repeated-variable case: verdict %v", v)
	}
}

func TestExtensionalLHSAtoms(t *testing.T) {
	// A tgd whose LHS is purely extensional: only the EDB part matters.
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	// A(x,y) -> G(x,y) after one non-recursive application: holds, since
	// the init rule derives exactly that.
	v, cex, err := Check(p, tgds("A(x, y) -> G(x, y)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("extensional LHS: verdict %v (cex: %v)", v, cex)
	}
	// A(x,y) -> Z(x): a purely extensional LHS can only be instantiated in
	// d itself, and d ∈ SAT(T) already provides the witness — so every
	// program trivially preserves such a tgd non-recursively.
	v, _, err = Check(p, tgds("A(x, y) -> Z(x)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("purely extensional LHS must be vacuously preserved: verdict %v", v)
	}
	// But the preliminary-DB variant makes no SAT(T) assumption on the EDB,
	// so the same tgd is refutable there.
	v, _, err = CheckPreliminary(p, tgds("A(x, y) -> Z(x)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("preliminary DB cannot guarantee Z(x): verdict %v", v)
	}
}

func TestTrivialRuleCombinationNeeded(t *testing.T) {
	// A two-atom LHS where the mixed combinations (one atom from d, one
	// from Pⁿ(d)) matter — the Example 15 structure with a weaker program
	// that fails. P derives G(x,z) from E(x,z) only; the tgd claims chained
	// G atoms have a C witness, which d alone need not provide.
	p := parser.MustParseProgram(`G(x, z) :- E(x, z).`)
	v, _, err := Check(p, tgds("G(x, y), G(y, z) -> C(y)."), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("verdict %v, want no (mixed combination violates)", v)
	}
}

func TestPreservationWithNoTgds(t *testing.T) {
	p := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	v, _, err := Check(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("empty T: verdict %v", v)
	}
	v, _, err = CheckPreliminary(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("empty T (3′): verdict %v", v)
	}
}

func TestNegationRejected(t *testing.T) {
	p := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	if _, _, err := Check(p, tgds("P(x) -> A(x)."), Options{}); err == nil {
		t.Fatal("negation accepted")
	}
	if _, _, err := CheckPreliminary(p, tgds("P(x) -> A(x)."), Options{}); err == nil {
		t.Fatal("negation accepted by preliminary test")
	}
}

func TestUnifierBasics(t *testing.T) {
	u := ast.NewUnifier()
	a := parser.MustParseAtom("G(x, y, 3)")
	b := parser.MustParseAtom("G(u, u, 3)")
	if !u.UnifyAtoms(a, b) {
		t.Fatal("unification failed")
	}
	ra := u.Apply(a)
	if !ra.Args[0].Equal(ra.Args[1]) {
		t.Fatalf("x and y not identified: %v", ra)
	}
	// Constant clash.
	u2 := ast.NewUnifier()
	if u2.UnifyAtoms(parser.MustParseAtom("G(3)"), parser.MustParseAtom("G(4)")) {
		t.Fatal("unified clashing constants")
	}
	// Predicate mismatch.
	u3 := ast.NewUnifier()
	if u3.UnifyAtoms(parser.MustParseAtom("G(x)"), parser.MustParseAtom("H(x)")) {
		t.Fatal("unified different predicates")
	}
	// Transitive chains resolve.
	u4 := ast.NewUnifier()
	if !u4.UnifyAtoms(parser.MustParseAtom("P(x, y)"), parser.MustParseAtom("P(y, 5)")) {
		t.Fatal("chain unification failed")
	}
	if got := u4.Apply(parser.MustParseAtom("P(x, y)")); got.Args[0].Val != ast.Int(5) || got.Args[1].Val != ast.Int(5) {
		t.Fatalf("chain resolution wrong: %v", got)
	}
}
