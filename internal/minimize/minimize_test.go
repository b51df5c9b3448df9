package minimize

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
)

func TestExample8MinimizeRule(t *testing.T) {
	// The Example 7/8 rule: A(w,y) is redundant, the other four atoms are
	// not, and the minimal form is exactly the rule of P2.
	r := parser.MustParseProgram(
		`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`,
	).Rules[0]
	min, trace, err := Rule(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := parser.MustParseProgram(
		`G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).`,
	).Rules[0]
	if !min.Equal(want) {
		t.Fatalf("minimized rule = %v, want %v", min, want)
	}
	if trace.AtomsRemoved() != 1 || trace.AtomRemovals[0].Atom.String() != "A(w, y)" {
		t.Fatalf("trace = %+v", trace)
	}
	// The result is uniformly equivalent to the original.
	eq, err := chase.UniformlyEquivalent(ast.NewProgram(r), ast.NewProgram(min))
	if err != nil {
		t.Fatal(err)
	}
	if eq != chase.Yes {
		t.Fatal("minimized rule not uniformly equivalent to original")
	}
}

func TestMinimalRuleUntouched(t *testing.T) {
	// The Example 7 minimal rule has no redundant atom.
	r := parser.MustParseProgram(
		`G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).`,
	).Rules[0]
	min, trace, err := Rule(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !min.Equal(r) || trace.AtomsRemoved() != 0 {
		t.Fatalf("minimal rule modified: %v, trace %+v", min, trace)
	}
}

func TestDuplicateAtomRemoved(t *testing.T) {
	r := parser.MustParseProgram(`G(x, z) :- A(x, z), A(x, z), A(x, w).`).Rules[0]
	min, trace, err := Rule(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both the literal duplicate and the subsumed A(x,w) must go.
	want := parser.MustParseProgram(`G(x, z) :- A(x, z).`).Rules[0]
	if !min.Equal(want) {
		t.Fatalf("minimized rule = %v", min)
	}
	if trace.AtomsRemoved() != 2 {
		t.Fatalf("removed %d atoms", trace.AtomsRemoved())
	}
}

func TestRangeRestrictionGuard(t *testing.T) {
	// The only body occurrence of head variable z cannot be deleted even
	// though the atom looks "loose".
	r := parser.MustParseProgram(`G(x, z) :- A(x, x), B(z).`).Rules[0]
	min, _, err := Rule(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Body) != 2 {
		t.Fatalf("range-restriction-violating deletion performed: %v", min)
	}
}

func TestAtomRedundantOnlyInProgram(t *testing.T) {
	// P(x) is redundant in Q's rule relative to the whole program (rule 1
	// derives it from A(x,y)) but not relative to Q's rule alone — the case
	// that forces Fig. 2 to test r̂ ⊑ᵘ P rather than r̂ ⊑ᵘ r.
	p := parser.MustParseProgram(`
		P(x) :- A(x, y).
		Q(x) :- A(x, y), P(x).
	`)
	// Rule alone: not redundant.
	minRule, traceRule, err := Rule(context.Background(), p.Rules[1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if traceRule.AtomsRemoved() != 0 || len(minRule.Body) != 2 {
		t.Fatalf("P(x) wrongly redundant in isolation: %v", minRule)
	}
	// Whole program: redundant.
	minProg, trace, err := Program(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.AtomsRemoved() != 1 {
		t.Fatalf("program-level removal missed: %+v", trace)
	}
	want := parser.MustParseProgram(`
		P(x) :- A(x, y).
		Q(x) :- A(x, y).
	`)
	if !minProg.Equal(want) {
		t.Fatalf("minimized program:\n%vwant:\n%v", minProg, want)
	}
}

func TestRedundantRuleRemoved(t *testing.T) {
	// The right-linear expansion rule is uniformly contained in full TC.
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	min, trace, err := Program(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.RulesRemoved() != 1 {
		t.Fatalf("removed %d rules, want 1", trace.RulesRemoved())
	}
	if len(min.Rules) != 2 {
		t.Fatalf("minimized program has %d rules:\n%v", len(min.Rules), min)
	}
	eq, err := chase.UniformlyEquivalent(p, min)
	if err != nil {
		t.Fatal(err)
	}
	if eq != chase.Yes {
		t.Fatal("minimized program not uniformly equivalent")
	}
}

func TestExactDuplicateRuleRemoved(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(u, w) :- A(u, w).
	`)
	min, trace, err := Program(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Rules) != 1 || trace.RulesRemoved() != 1 {
		t.Fatalf("variant rule not removed:\n%v", min)
	}
}

func TestTheorem2ResultIsMinimal(t *testing.T) {
	programs := []string{
		`G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).`,
		`G(x, z) :- A(x, z).
		 G(x, z) :- G(x, y), G(y, z).
		 G(x, z) :- A(x, y), G(y, z).`,
		`P(x) :- A(x, y).
		 Q(x) :- A(x, y), P(x), A(x, z).`,
		`G(x, z) :- A(x, z), C(z).
		 G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).`,
	}
	for _, src := range programs {
		p := parser.MustParseProgram(src)
		min, _, err := Program(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		minimal, err := IsMinimal(context.Background(), min)
		if err != nil {
			t.Fatal(err)
		}
		if !minimal {
			t.Fatalf("result not minimal:\n%v", min)
		}
		eq, err := chase.UniformlyEquivalent(p, min)
		if err != nil {
			t.Fatal(err)
		}
		if eq != chase.Yes {
			t.Fatalf("result not uniformly equivalent for:\n%s", src)
		}
	}
}

// TestProgramLeavesCallerUntouched: Program copies only the caller's rule
// list when Rand is nil, so neither the minimization nor a later write to
// or append on any Body, NegBody or Args slice of its result may change the
// caller's program; with Rand set the input is shuffled in a deep copy.
func TestProgramLeavesCallerUntouched(t *testing.T) {
	src := `G(x, z) :- A(x, z), A(x, w), B(w).
		G(x, z) :- G(x, y), G(y, z), A(y, y).
		G(x, z) :- A(x, y), G(y, z).
		H(x) :- G(x, y), !B(x), !B(x).
		H(x) :- G(x, y), A(y, z), !B(x).`
	for _, opts := range []Options{{}, {Rand: rand.New(rand.NewSource(3))}} {
		p := parser.MustParseProgram(src)
		before := p.String()
		min, trace, err := Program(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if trace.AtomsRemoved() == 0 || trace.RulesRemoved() == 0 {
			t.Fatalf("want atoms and rules removed, trace %+v", trace)
		}
		if got := p.String(); got != before {
			t.Fatalf("Program changed its input:\n%s\nwas\n%s", got, before)
		}
		junk := ast.NewAtom("JUNK", ast.Var("j"), ast.Var("j"), ast.Var("j"))
		for i := range min.Rules {
			r := &min.Rules[i]
			for _, atoms := range []*[]ast.Atom{&r.Body, &r.NegBody} {
				_ = append(*atoms, junk)
				for k := range *atoms {
					_ = append((*atoms)[k].Args, ast.Var("j"))
					(*atoms)[k].Args[0] = ast.Var("j")
					(*atoms)[k] = junk
				}
			}
			_ = append(r.Head.Args, ast.Var("j"))
			r.Head.Args[0] = ast.Var("j")
		}
		if got := p.String(); got != before {
			t.Fatalf("writing the result changed the input:\n%s\nwas\n%s", got, before)
		}
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	min1, _, err := Program(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	min2, trace, err := Program(context.Background(), min1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !min1.Equal(min2) || trace.AtomsRemoved() != 0 || trace.RulesRemoved() != 0 {
		t.Fatal("minimization not idempotent")
	}
}

func TestRandomOrderStillMinimalAndEquivalent(t *testing.T) {
	// The paper: the result may depend on consideration order, but every
	// order yields a minimal, uniformly equivalent program.
	src := `
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		G(x, z) :- A(x, y), G(y, z).
		G(x, z) :- A(x, z), A(x, w).
	`
	p := parser.MustParseProgram(src)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		min, _, err := Program(context.Background(), p, Options{Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		minimal, err := IsMinimal(context.Background(), min)
		if err != nil {
			t.Fatal(err)
		}
		if !minimal {
			t.Fatalf("seed %d: result not minimal:\n%v", seed, min)
		}
		eq, err := chase.UniformlyEquivalent(p, min)
		if err != nil {
			t.Fatal(err)
		}
		if eq != chase.Yes {
			t.Fatalf("seed %d: result not uniformly equivalent", seed)
		}
	}
}

func TestUniformEquivalenceIsLocal(t *testing.T) {
	// The paper's motivation for uniform equivalence: replacing a subset of
	// rules by a uniformly equivalent subset preserves program equivalence.
	// Here we check the instance used throughout: substituting the
	// minimized Example 7 rule inside a bigger program keeps the program
	// uniformly equivalent as a whole.
	big := parser.MustParseProgram(`
		G(x, y, z) :- B(x, y, z).
		G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).
	`)
	min, _, err := Program(context.Background(), big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := chase.UniformlyEquivalent(big, min)
	if err != nil {
		t.Fatal(err)
	}
	if eq != chase.Yes {
		t.Fatal("local substitution broke uniform equivalence")
	}
	// The redundant atom is gone from the recursive rule.
	if len(min.Rules[1].Body) != 4 {
		t.Fatalf("expected 4 body atoms, got %v", min.Rules[1])
	}
}

// TestStratifiedMinimalUnchanged: Program takes a program with stratified
// negation directly, and a minimal one comes back as it went in.
func TestStratifiedMinimalUnchanged(t *testing.T) {
	p := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	min, trace, err := Program(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.AtomsRemoved()+trace.RulesRemoved() != 0 || !min.Equal(p) {
		t.Fatalf("minimal stratified program changed: %+v\n%v", trace, min)
	}
}

func TestEmptyAndTinyPrograms(t *testing.T) {
	empty := ast.NewProgram()
	min, trace, err := Program(context.Background(), empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Rules) != 0 || trace.AtomsRemoved() != 0 {
		t.Fatal("empty program mishandled")
	}
	single := parser.MustParseProgram(`G(x, z) :- A(x, z).`)
	min, _, err = Program(context.Background(), single, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Rules) != 1 {
		t.Fatalf("single necessary rule removed:\n%v", min)
	}
}

// IsMinimal reports whether p has no atom and no rule deletable under
// uniform equivalence — the property Theorem 2 guarantees for the output of
// Program. Every atom test and, through masks, every rule test runs on one
// containment session over p. Rule i is tested against P − {r_i} with a
// mask of its own, not through the rule phase, so a fault there shows.
func IsMinimal(ctx context.Context, p *ast.Program) (bool, error) {
	ck, err := chase.NewChecker(p)
	if err != nil {
		return false, err
	}
	for _, r := range p.Rules {
		for k := range len(r.Body) + len(r.NegBody) {
			cand := withoutAtom(r, k)
			if !cand.WellFormed() {
				continue
			}
			ok, err := ck.ContainsRule(ctx, cand)
			if err != nil {
				return false, err
			}
			if ok {
				return false, nil
			}
		}
	}
	rules := ck.Program().Rules
	for i, r := range rules {
		skip := make([]bool, len(rules))
		skip[i] = true
		ok, err := ck.ContainsRuleMasked(ctx, r, skip)
		if err != nil || ok {
			return false, err
		}
	}
	return true, nil
}
