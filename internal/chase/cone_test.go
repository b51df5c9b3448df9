package chase

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/oracle"
)

// randomConeProgram is a pure program over two extensional and three
// intentional predicates (all binary) whose rules pick their heads and body
// predicates freely, so dependence graphs come out layered, recursive,
// mutually recursive and disconnected, and a goal's cone is often a proper
// subset of the rules. The names are this test's own, so no other test's
// verdicts are in the store under its programs.
func randomConeProgram(rng *rand.Rand) *ast.Program {
	vars := []string{"x", "y", "z", "w"}
	edb := []string{"Na", "Nb"}
	idb := []string{"Np", "Nq", "Nr"}
	p := ast.NewProgram()
	for n := 2 + rng.Intn(4); n > 0; n-- {
		body := make([]ast.Atom, 1+rng.Intn(3))
		var bodyVars []string
		for j := range body {
			pred := edb[rng.Intn(len(edb))]
			if rng.Intn(3) == 0 {
				pred = idb[rng.Intn(len(idb))]
			}
			v1, v2 := vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]
			if rng.Intn(8) == 0 {
				body[j] = ast.NewAtom(pred, ast.Var(v1), ast.IntTerm(int64(rng.Intn(2))))
				bodyVars = append(bodyVars, v1)
			} else {
				body[j] = ast.NewAtom(pred, ast.Var(v1), ast.Var(v2))
				bodyVars = append(bodyVars, v1, v2)
			}
		}
		head := ast.NewAtom(idb[rng.Intn(len(idb))],
			ast.Var(bodyVars[rng.Intn(len(bodyVars))]),
			ast.Var(bodyVars[rng.Intn(len(bodyVars))]))
		p.Rules = append(p.Rules, ast.Rule{Head: head, Body: body})
	}
	return p
}

// naiveDerives is Corollary 2's test read literally: close the frozen body
// of r under every rule of p that skip leaves on, one naive round at a time
// on the binding-map matcher, and look for the frozen head. It shares no code
// with the planner, the mask or the goal cone.
func naiveDerives(p *ast.Program, skip []bool, r ast.Rule) bool {
	head, d := FreezeRule(r)
	for {
		var derived []ast.GroundAtom
		for i, rule := range p.Rules {
			if skip != nil && skip[i] {
				continue
			}
			b := ast.Binding{}
			oracle.MatchConjunction(d, rule.Body, b, func() bool {
				if g := rule.Head.MustGround(b); !d.Has(g) {
					derived = append(derived, g)
				}
				return true
			})
		}
		grew := false
		for _, g := range derived {
			grew = d.Add(g) || grew
		}
		if !grew {
			return d.Has(head)
		}
	}
}

// noRuleCanStart reports whether no rule of p that skip leaves on has every
// body predicate among the relations of d. Then nothing is ever derived from
// d, so no rule can fire in any round.
func noRuleCanStart(p *ast.Program, skip []bool, d *db.Database) bool {
	for i, rule := range p.Rules {
		if skip != nil && skip[i] {
			continue
		}
		all := true
		for _, a := range rule.Body {
			if rel := d.Relation(a.Pred); rel == nil || rel.Live() == 0 {
				all = false
			}
		}
		if all {
			return false
		}
	}
	return true
}

// TestContainsRuleMatchesNaiveDerivation: over random pure programs, every
// well-formed atom-deletion candidate r̂ (the Fig. 1 shapes) is decided
// against P and against every P − {s} — the Fig. 2 masks — by the session,
// whose runs mask the rules outside the goal's cone and plan no rule over an
// empty relation, and by naiveDerives. The verdicts must agree. A run that
// starts from a frozen body on which no rule left on can fire must also
// begin no round. The θ-subsumption shortcut is off, so every fresh verdict
// is a run.
func TestContainsRuleMatchesNaiveDerivation(t *testing.T) {
	ctx := context.Background()
	programs, runs, positives, zeroRound := 0, 0, 0, 0
	for seed := int64(0); programs < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomConeProgram(rng)
		if p.Validate() != nil {
			continue
		}
		programs++
		c, err := NewChecker(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.noSyntactic = true
		masks := [][]bool{nil}
		for s := range p.Rules {
			skip := make([]bool, len(p.Rules))
			skip[s] = true
			masks = append(masks, skip)
		}
		for _, r := range p.Rules {
			for k := range r.Body {
				cand := r.WithoutBodyAtom(k)
				if !cand.WellFormed() {
					continue
				}
				_, frozen := FreezeRule(cand)
				for _, skip := range masks {
					before := *c.Tally()
					got, err := c.ContainsRuleMasked(ctx, cand, skip)
					if err != nil {
						t.Fatalf("seed %d: %s under %v: %v", seed, cand, skip, err)
					}
					if want := naiveDerives(p, skip, cand); got != want {
						t.Fatalf("seed %d: session says %s ⊑ᵘ P − S = %v, naive derivation says %v\nS = %v\nP:\n%s",
							seed, cand, got, want, skip, p)
					}
					if got {
						positives++
					}
					delta := c.Tally().Sub(before)
					if delta.VerdictsRecomputed == 0 {
						continue // answered from the store
					}
					runs++
					if noRuleCanStart(p, skip, frozen) {
						zeroRound++
						if delta.Rounds != 0 {
							t.Fatalf("seed %d: no rule can fire on the frozen body of %s, yet the run took %d rounds\nS = %v\nP:\n%s",
								seed, cand, delta.Rounds, skip, p)
						}
					}
				}
			}
		}
	}
	if runs < 5000 || positives < 500 || zeroRound < 500 {
		t.Fatalf("undersampled: %d runs, %d positive verdicts, %d runs where no rule can fire", runs, positives, zeroRound)
	}
	t.Logf("%d programs, %d runs, %d positive verdicts, %d runs where no rule can fire", programs, runs, positives, zeroRound)
}
