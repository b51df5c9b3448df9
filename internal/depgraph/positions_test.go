package depgraph

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func tgds(t *testing.T, srcs ...string) []ast.TGD {
	t.Helper()
	out := make([]ast.TGD, len(srcs))
	for i, s := range srcs {
		out[i] = parser.MustParseTGD(s)
	}
	return out
}

func TestClassifyWeaklyAcyclic(t *testing.T) {
	cl := ClassifyTGDs(nil, tgds(t,
		"P(x) -> Q(x, y).",
		"Q(x, y) -> R(y).",
	))
	if cl.Class != TermWeaklyAcyclic {
		t.Fatalf("class = %v, want weakly-acyclic", cl.Class)
	}
	if cl.WAViolation != nil {
		t.Fatalf("unexpected WA witness %v", cl.WAViolation)
	}
	if !cl.Class.ChaseTerminates() {
		t.Fatal("weakly acyclic must report a terminating chase")
	}
	// Q[2] receives a null (rank 1); R[1] copies it (still rank 1).
	if r := cl.Ranks[Position{"Q", 1}]; r != 1 {
		t.Fatalf("rank(Q[2]) = %d, want 1", r)
	}
	if r := cl.Ranks[Position{"R", 0}]; r != 1 {
		t.Fatalf("rank(R[1]) = %d, want 1", r)
	}
	if cl.MaxRank != 1 {
		t.Fatalf("MaxRank = %d, want 1", cl.MaxRank)
	}
	if cl.Full {
		t.Fatal("set has existentials; Full must be false")
	}
}

func TestClassifyJointlyAcyclicOnly(t *testing.T) {
	// The WA cycle B[1] => R[2] -> S[1] -> B[1] exists, but Ω(v) =
	// {R[2], S[1]} never covers x's body position B[1], so the
	// existential-dependency graph has no edge at all.
	cl := ClassifyTGDs(nil, tgds(t,
		"B(x) -> R(x, v).",
		"R(x, v) -> S(v).",
		"S(v), T(v) -> B(v).",
	))
	if cl.Class != TermJointlyAcyclic {
		t.Fatalf("class = %v, want jointly-acyclic", cl.Class)
	}
	if cl.WAViolation == nil {
		t.Fatal("expected a weak-acyclicity witness cycle")
	}
	got := cl.WAViolation.String()
	if !strings.Contains(got, "=>") || !strings.Contains(got, "R[2]") {
		t.Fatalf("witness %q should pass through the special edge into R[2]", got)
	}
	first, last := cl.WAViolation.Cycle[0], cl.WAViolation.Cycle[len(cl.WAViolation.Cycle)-1]
	if first != last {
		t.Fatalf("witness cycle %v must close on itself", cl.WAViolation.Cycle)
	}
	if len(cl.WAViolation.Origins) != len(cl.WAViolation.Cycle)-1 {
		t.Fatalf("origins %v must name one dependency per edge of %v",
			cl.WAViolation.Origins, cl.WAViolation.Cycle)
	}
	if cl.JAViolation != nil {
		t.Fatalf("unexpected JA witness %v", cl.JAViolation)
	}
	if !cl.Class.ChaseTerminates() {
		t.Fatal("jointly acyclic must report a terminating chase")
	}
}

func TestClassifyStickyOnly(t *testing.T) {
	// R(x,y) -> R(y,z): the self special edge breaks WA, Ω(z) ∋ both R
	// positions gives the JA self-loop z -> z, but x and y each occur once
	// per body, so the marking finds no join.
	cl := ClassifyTGDs(nil, tgds(t, "R(x, y) -> R(y, z)."))
	if cl.Class != TermSticky {
		t.Fatalf("class = %v, want sticky", cl.Class)
	}
	if cl.WAViolation == nil || cl.JAViolation == nil {
		t.Fatalf("expected both WA and JA witnesses, got %v / %v",
			cl.WAViolation, cl.JAViolation)
	}
	if cl.Class.ChaseTerminates() {
		t.Fatal("sticky alone must not claim chase termination")
	}
	if a, m := cl.DerivedBudget(3); a != 0 || m != 0 {
		t.Fatalf("non-terminating class derived a budget (%d, %d)", a, m)
	}
}

func TestClassifyDivergent(t *testing.T) {
	// The join variable y of the rule sits at R[1]/R[2], both infinite-rank
	// because of the R(x,y) -> R(y,z) generator, and y is marked (it does
	// not reach the rule head).
	prog := parser.MustParseProgram("T(x, w) :- R(x, y), R(y, w).")
	cl := ClassifyTGDs(prog.Rules, tgds(t, "R(x, y) -> R(y, z)."))
	if cl.Class != TermDivergent {
		t.Fatalf("class = %v, want divergence-capable", cl.Class)
	}
	if cl.StickyViolation == nil {
		t.Fatal("expected a marked-join witness")
	}
	if cl.StickyViolation.Var != "y" {
		t.Fatalf("marked join var = %q, want y", cl.StickyViolation.Var)
	}
	if cl.StickyViolation.FiniteRank {
		t.Fatal("divergent witness must have no finite-rank occurrence")
	}
	if cl.StickyViolation.Occurrences != 2 {
		t.Fatalf("occurrences = %d, want 2", cl.StickyViolation.Occurrences)
	}
}

func TestClassifyWeaklySticky(t *testing.T) {
	// Same generator, but the join now ranges over the extensional D whose
	// positions have rank 0 — weak stickiness rescues it.
	prog := parser.MustParseProgram("E(x, w) :- D(x, y), D(y, w).")
	cl := ClassifyTGDs(prog.Rules, tgds(t, "R(x, y) -> R(y, z)."))
	if cl.Class != TermWeaklySticky {
		t.Fatalf("class = %v, want weakly-sticky", cl.Class)
	}
	if cl.StickyViolation == nil || !cl.StickyViolation.FiniteRank {
		t.Fatalf("expected a finite-rank-rescued join, got %v", cl.StickyViolation)
	}
}

func TestClassifyFullSet(t *testing.T) {
	cl := ClassifyTGDs(nil, tgds(t, "A(x), B(x) -> C(x)."))
	if !cl.Full {
		t.Fatal("full tgd set must be flagged Full")
	}
	if cl.Class != TermWeaklyAcyclic {
		t.Fatalf("class = %v, want weakly-acyclic (no special edges at all)", cl.Class)
	}
}

func TestClassifyRulesOnlyCycleStaysWA(t *testing.T) {
	// Recursive plain rules cycle through normal edges only.
	prog := parser.MustParseProgram("T(x, z) :- T(x, y), E(y, z).\nT(x, y) :- E(x, y).")
	cl := ClassifyTGDs(prog.Rules, nil)
	if cl.Class != TermWeaklyAcyclic {
		t.Fatalf("class = %v, want weakly-acyclic", cl.Class)
	}
	if !cl.Full {
		t.Fatal("rules-only input is trivially full")
	}
}

func TestDerivedBudgetCoversSmallChase(t *testing.T) {
	cl := ClassifyTGDs(nil, tgds(t,
		"P(x) -> Q(x, y).",
		"Q(x, y) -> R(y).",
	))
	atoms, rounds := cl.DerivedBudget(2)
	if atoms <= 0 || rounds <= atoms {
		t.Fatalf("budget (%d, %d) not usable", atoms, rounds)
	}
	// 2 constants, 2 dependencies, 1 existential each: the real chase of
	// {P(a), P(b)} creates 2 nulls and ≤ 6 atoms. The derived bound must
	// dominate that comfortably.
	if atoms < 6 {
		t.Fatalf("derived MaxAtoms %d below the concrete chase size", atoms)
	}
}

func TestDerivedBudgetSaturates(t *testing.T) {
	// A wide, deep set must clamp at the cap instead of overflowing.
	srcs := []string{}
	prev := "A0"
	for i := 1; i <= 12; i++ {
		next := "A" + string(rune('0'+i%10)) + string(rune('a'+i))
		srcs = append(srcs, prev+"(x1, x2, x3, x4, x5, x6, x7, x8) -> "+
			next+"(x1, x2, x3, x4, x5, x6, x7, y1).")
		prev = next
	}
	cl := ClassifyTGDs(nil, tgds(t, srcs...))
	if !cl.Class.ChaseTerminates() {
		t.Fatalf("chain must be terminating, got %v", cl.Class)
	}
	atoms, rounds := cl.DerivedBudget(1000)
	if atoms != boundCap || rounds != boundCap {
		t.Fatalf("budget (%d, %d) should saturate at the cap", atoms, rounds)
	}
	if atoms < 0 || rounds < 0 {
		t.Fatal("saturating arithmetic overflowed")
	}
}

func TestPositionStringAndWitnessFormat(t *testing.T) {
	p := Position{Pred: "Edge", Col: 0}
	if p.String() != "Edge[1]" {
		t.Fatalf("Position.String = %q", p.String())
	}
	if got := FormatPositions([]Position{p, {Pred: "Edge", Col: 1}}); got != "Edge[1], Edge[2]" {
		t.Fatalf("FormatPositions = %q", got)
	}
}

func TestClassifyDeterministic(t *testing.T) {
	prog := parser.MustParseProgram("T(x, w) :- R(x, y), R(y, w).")
	ts := tgds(t, "R(x, y) -> R(y, z).", "B(x) -> R(x, v).")
	first := ClassifyTGDs(prog.Rules, ts)
	for i := 0; i < 20; i++ {
		again := ClassifyTGDs(prog.Rules, ts)
		if again.Class != first.Class {
			t.Fatalf("class flapped: %v vs %v", first.Class, again.Class)
		}
		if (again.WAViolation == nil) != (first.WAViolation == nil) ||
			(again.WAViolation != nil && again.WAViolation.String() != first.WAViolation.String()) {
			t.Fatalf("WA witness flapped: %v vs %v", first.WAViolation, again.WAViolation)
		}
		if (again.StickyViolation == nil) != (first.StickyViolation == nil) ||
			(again.StickyViolation != nil && again.StickyViolation.Var != first.StickyViolation.Var) {
			t.Fatalf("sticky witness flapped")
		}
	}
}
