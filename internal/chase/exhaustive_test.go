package chase

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

// enumerateDBs yields every database over the given unary/binary predicate
// signatures with constants drawn from {0..domain-1}. With two binary
// predicates and domain 2 that is 2^8 = 256 databases — small enough to
// check the chase's verdicts against ground truth exhaustively.
func enumerateDBs(sigs []ast.PredicateSig, domain int, visit func(*db.Database)) {
	// Build the universe of possible facts.
	var universe []ast.GroundAtom
	for _, sig := range sigs {
		tuples := 1
		for i := 0; i < sig.Arity; i++ {
			tuples *= domain
		}
		for t := 0; t < tuples; t++ {
			args := make([]ast.Const, sig.Arity)
			v := t
			for i := range args {
				args[i] = ast.Int(int64(v % domain))
				v /= domain
			}
			universe = append(universe, ast.GroundAtom{Pred: sig.Name, Args: args})
		}
	}
	if len(universe) > 20 {
		panic("exhaustive enumeration too large")
	}
	for mask := 0; mask < 1<<len(universe); mask++ {
		d := db.New()
		for i, f := range universe {
			if mask&(1<<i) != 0 {
				d.Add(f)
			}
		}
		visit(d)
	}
}

// TestProposition2Exhaustive checks Proposition 2's easy direction
// exhaustively: when the chase proves P₂ ⊑ᵘ P₁ (equivalently
// M(P₁) ⊆ M(P₂)), then over EVERY database of a tiny domain, (a) every
// model of P₁ is a model of P₂ and (b) P₂(d) ⊆ P₁(d).
func TestProposition2Exhaustive(t *testing.T) {
	pairs := []struct {
		name   string
		p1, p2 string
	}{
		{"tc-vs-linear", `
			G(x, z) :- A(x, z).
			G(x, z) :- G(x, y), G(y, z).`, `
			G(x, z) :- A(x, z).
			G(x, z) :- A(x, y), G(y, z).`},
		{"ex7", `
			G(x, y) :- G(x, w), A(w, y), A(y, y).`, `
			G(x, y) :- G(x, w), A(w, y).`},
		{"selfjoin", `
			P(x) :- A(x, x).`, `
			P(x) :- A(x, y), A(y, x).`},
	}
	for _, pr := range pairs {
		t.Run(pr.name, func(t *testing.T) {
			p1 := parser.MustParseProgram(pr.p1)
			p2 := parser.MustParseProgram(pr.p2)
			v, _, err := UniformlyContains(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			// Collect the union of both programs' predicates.
			sigSet := map[string]int{}
			for _, p := range []*ast.Program{p1, p2} {
				for _, s := range p.Predicates() {
					sigSet[s.Name] = s.Arity
				}
			}
			var sigs []ast.PredicateSig
			for name, ar := range sigSet {
				sigs = append(sigs, ast.PredicateSig{Name: name, Arity: ar})
			}
			checked := 0
			enumerateDBs(sigs, 2, func(d *db.Database) {
				checked++
				o1 := eval.MustEval(p1, d)
				o2 := eval.MustEval(p2, d)
				if v == Yes {
					// (b) output containment on every DB.
					if !o1.Contains(o2) {
						t.Fatalf("chase said P2 ⊑ᵘ P1 but P2(d) ⊄ P1(d) on\n%s", d)
					}
					// (a) model containment.
					if eval.IsModel(p1, d) && !eval.IsModel(p2, d) {
						t.Fatalf("chase said M(P1) ⊆ M(P2) but %s is a model of P1 only", d)
					}
				}
			})
			if checked == 0 {
				t.Fatal("enumeration visited nothing")
			}
		})
	}
}

// TestChaseNoHasCanonicalWitness checks the refutation side: whenever the
// chase answers "no" for a rule r against P, the frozen body of r is a
// concrete counterexample — P's evaluation of it misses the frozen head.
func TestChaseNoHasCanonicalWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 80; trial++ {
		p1 := workload.RandomProgram(rng, 1+rng.Intn(3))
		p2 := workload.RandomProgram(rng, 1+rng.Intn(3))
		if p1.Validate() != nil || p2.Validate() != nil {
			continue
		}
		v, witness, err := UniformlyContains(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		if v == Yes {
			continue
		}
		if v != No {
			t.Fatalf("trial %d: pure pair answered %v", trial, v)
		}
		r := p2.Rules[witness]
		head, body := FreezeRule(r)
		out, _, err := eval.Eval(p1, body)
		if err != nil {
			t.Fatal(err)
		}
		if out.Has(head) {
			t.Fatalf("witness rule %v: frozen head derived after all", r)
		}
		// And the rule itself derives it in one step — so the canonical DB
		// truly separates the programs.
		single := ast.NewProgram(r)
		out2, _, err := eval.Eval(single, body)
		if err != nil {
			t.Fatal(err)
		}
		if !out2.Has(head) {
			t.Fatalf("rule %v does not derive its own frozen head", r)
		}
	}
}

// TestMinimalModelCharacterization checks the Van Emden–Kowalski fact the
// paper leans on in Section IV: P(d) is the minimal model containing d —
// exhaustively, no model of P containing d is a proper subset of P(d).
func TestMinimalModelCharacterization(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	sigs := []ast.PredicateSig{{Name: "A", Arity: 2}, {Name: "G", Arity: 2}}
	// For a fixed small input, every model of p containing the input
	// contains P(input).
	input := db.FromFacts([]ast.GroundAtom{
		{Pred: "A", Args: []ast.Const{ast.Int(0), ast.Int(1)}},
		{Pred: "A", Args: []ast.Const{ast.Int(1), ast.Int(0)}},
	})
	closure := eval.MustEval(p, input)
	enumerateDBs(sigs, 2, func(d *db.Database) {
		if !d.Contains(input) || !eval.IsModel(p, d) {
			return
		}
		if !d.Contains(closure) {
			t.Fatalf("model %s contains the input but not P(input) — minimality broken", d)
		}
	})
}
