package explain_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// randomStratified is workload.RandomProgram (pure, P and Q over A and B)
// with two strata on top: R reads A, B, P, Q and itself and negates P or Q; S
// reads all of those and itself and may negate R too. Negated literals reuse
// variables of the positive body, so every rule is safe.
func randomStratified(rng *rand.Rand) *ast.Program {
	p := workload.RandomProgram(rng, 2+rng.Intn(3))
	vars := []string{"x", "y", "z"}
	atom := func(pred string, from []string) ast.Atom {
		return ast.NewAtom(pred, ast.Var(from[rng.Intn(len(from))]), ast.Var(from[rng.Intn(len(from))]))
	}
	for _, head := range []string{"R", "S"}[:1+rng.Intn(2)] {
		pos, neg := []string{"A", "B", "P", "Q", "R"}, []string{"P", "Q"}
		if head == "S" {
			pos, neg = append(pos, "S"), append(neg, "R")
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			// The first atom is extensional so the stratum is founded.
			body := []ast.Atom{atom(pos[rng.Intn(2)], vars)}
			for k := rng.Intn(2); k > 0; k-- {
				body = append(body, atom(pos[rng.Intn(len(pos))], vars))
			}
			bound := ast.VarsOfAtoms(body)
			r := ast.Rule{Head: atom(head, bound), Body: body}
			if rng.Intn(3) > 0 {
				r.NegBody = []ast.Atom{atom(neg[rng.Intn(len(neg))], bound)}
			}
			p.Rules = append(p.Rules, r)
		}
	}
	return p
}

// oracleCounts counts, per head fact, the rule instantiations valid in out —
// body grounded into out, no negated literal there — with the reference
// binding-map matcher, which shares nothing with the operator pipeline.
func oracleCounts(p *ast.Program, out *db.Database) map[string]int {
	counts := make(map[string]int)
	for _, r := range p.Rules {
		b := ast.Binding{}
		oracle.MatchConjunction(out, r.Body, b, func() bool {
			for _, n := range r.NegBody {
				if out.Has(n.MustGround(b)) {
					return true
				}
			}
			counts[r.Head.MustGround(b).Key()]++
			return true
		})
	}
	return counts
}

func roundOf(t *testing.T, d *db.Database, f ast.GroundAtom) int32 {
	t.Helper()
	id, ok := d.Relation(f.Pred).LookupID(f.Args)
	if !ok {
		t.Fatalf("%v is not in the database", f)
	}
	return d.Relation(f.Pred).RoundOf(int(id))
}

// checkTree asserts what Verify does not: every premise is stamped strictly
// below its conclusion, and no negated literal of a used rule is in out.
func checkTree(t *testing.T, p *ast.Program, out *db.Database, d *explain.Derivation) {
	t.Helper()
	if d.IsInput() {
		return
	}
	for _, n := range p.Rules[d.RuleIndex].NegBody {
		if g := n.MustGround(d.Binding); out.Has(g) {
			t.Fatalf("proof of %v fires rule %d although %v holds", d.Fact, d.RuleIndex, g)
		}
	}
	for _, prem := range d.Premises {
		if rp, rc := roundOf(t, out, prem.Fact), roundOf(t, out, d.Fact); rp >= rc {
			t.Fatalf("premise %v (round %d) is not older than %v (round %d)", prem.Fact, rp, d.Fact, rc)
		}
		checkTree(t, p, out, prem)
	}
}

// TestProofReadBackProperty: over seeded random stratified programs and
// inputs (intentional input facts included), every fact of the output has a
// proof that verifies, descends strictly in round stamps and respects
// negation; a goal-cut partial database explains its goal; and the
// derivation counts are the reference matcher's, negation included.
func TestProofReadBackProperty(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomStratified(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced an invalid program: %v\n%s", seed, err, p)
		}
		in := workload.RandomDB(rng, p, 5, 7)
		for _, pred := range []string{"P", "R"} {
			in.AddTuple(pred, []ast.Const{ast.Int(int64(rng.Intn(5))), ast.Int(int64(rng.Intn(5)))})
		}
		prep, err := eval.Prepare(p)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		out, _, _, err := prep.Run(ctx, in, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pr := explain.Over(p, prep, in, out)
		want, sum := oracleCounts(p, out), 0
		for _, f := range out.Facts() {
			d, ok := pr.Explain(f)
			if !ok {
				t.Fatalf("seed %d: no proof of %v\n%s", seed, f, p)
			}
			if err := explain.Verify(p, in, d); err != nil {
				t.Fatalf("seed %d: proof of %v: %v\n%s", seed, f, err, p)
			}
			checkTree(t, p, out, d)
			if n := pr.Justifications(f); n != want[f.Key()] {
				t.Fatalf("seed %d: %v has %d justifications, the oracle counts %d\n%s", seed, f, n, want[f.Key()], p)
			}
			sum += want[f.Key()]

			if in.Has(f) || rng.Intn(4) > 0 {
				continue
			}
			cut, reached, _, err := prep.Run(ctx, in, &f, 0)
			if err != nil || !reached {
				t.Fatalf("seed %d: goal %v: reached=%v err=%v", seed, f, reached, err)
			}
			d, ok = explain.Over(p, prep, in, cut).Explain(f)
			if !ok {
				t.Fatalf("seed %d: the database cut at %v does not explain it\n%s", seed, f, p)
			}
			if err := explain.Verify(p, in, d); err != nil {
				t.Fatalf("seed %d: goal-cut proof of %v: %v", seed, f, err)
			}
			checkTree(t, p, cut, d)
		}
		if n := pr.TotalJustifications(); n != sum {
			t.Fatalf("seed %d: TotalJustifications = %d, the per-fact counts sum to %d\n%s", seed, n, sum, p)
		}
	}
}
