package chase

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

// groundTruth decides r ⊑ᵘ p with a fresh, fully uncached chase — no plan
// cache, no verdict store, no Derive — so the property tests compare the
// incremental session against an independent oracle.
func groundTruth(t *testing.T, p *ast.Program, r ast.Rule) bool {
	t.Helper()
	head, body := FreezeRule(r)
	prep, err := eval.Prepare(p, eval.Options{})
	if err != nil {
		t.Fatalf("prepare oracle: %v", err)
	}
	_, reached, _, err := prep.Run(nil, body, &head, 0)
	if err != nil {
		t.Fatalf("oracle chase: %v", err)
	}
	return reached
}

// probeRules builds the set of rules the property test checks after every
// delta: each original rule plus each of its well-formed single-atom
// deletions — exactly the shapes the Fig. 1/2 loops test — plus rules from
// an unrelated random program.
func probeRules(p *ast.Program, rng *rand.Rand) []ast.Rule {
	var probes []ast.Rule
	for _, r := range p.Rules {
		probes = append(probes, r)
		for k := range r.Body {
			cand := r.WithoutBodyAtom(k)
			if cand.WellFormed() {
				probes = append(probes, cand)
			}
		}
	}
	other := workload.RandomProgram(rng, 2)
	if other.Validate() == nil {
		probes = append(probes, other.Rules...)
	}
	return probes
}

// randomDelta picks a random applicable delta for q: a rule deletion, or a
// replacement of a rule by a well-formed single-atom weakening of itself.
// It returns ok=false when q admits no delta.
func randomDelta(q *ast.Program, rng *rand.Rand) (Delta, bool) {
	if len(q.Rules) == 0 {
		return Delta{}, false
	}
	// Try a few times to find an atom-deletion weakening; fall back to rule
	// deletion (always applicable while rules remain).
	if rng.Intn(2) == 0 {
		for attempt := 0; attempt < 4; attempt++ {
			i := rng.Intn(len(q.Rules))
			r := q.Rules[i]
			if len(r.Body) < 2 {
				continue
			}
			cand := r.WithoutBodyAtom(rng.Intn(len(r.Body)))
			if cand.WellFormed() {
				return Delta{RuleIndex: i, NewRule: &cand}, true
			}
		}
	}
	return Delta{RuleIndex: rng.Intn(len(q.Rules))}, true
}

// applyDelta mirrors a delta onto the plain program the oracle evaluates.
func applyDelta(q *ast.Program, d Delta) *ast.Program {
	if d.NewRule == nil {
		return q.WithoutRule(d.RuleIndex)
	}
	return q.ReplaceRule(d.RuleIndex, *d.NewRule)
}

// TestDeriveMatchesFreshChecker is the core property of the incremental
// containment layer: a session reached through any chain of Derive deltas
// answers ContainsRule exactly like a fresh uncached chase over the final
// program. Probing the same rules before and after each delta checks that a
// warmed parent's verdicts never answer for the derived program, not just
// the plan-patching path.
func TestDeriveMatchesFreshChecker(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		probes := probeRules(p, rng)

		ck, err := NewChecker(p)
		if err != nil {
			t.Fatalf("seed %d: NewChecker: %v", seed, err)
		}
		q := p.Clone()
		// Warm the session's memo: a derived session must not answer from it.
		for _, r := range probes {
			if _, err := ck.ContainsRule(context.Background(), r); err != nil {
				t.Fatalf("seed %d: warmup: %v", seed, err)
			}
		}
		for step := 0; step < 4; step++ {
			d, ok := randomDelta(q, rng)
			if !ok {
				break
			}
			nck, err := ck.Derive(d)
			if err != nil {
				t.Fatalf("seed %d step %d: Derive: %v", seed, step, err)
			}
			ck = nck
			q = applyDelta(q, d)
			for pi, r := range probes {
				got, err := ck.ContainsRule(context.Background(), r)
				if err != nil {
					t.Fatalf("seed %d step %d probe %d: %v", seed, step, pi, err)
				}
				if want := groundTruth(t, q, r); got != want {
					t.Fatalf("seed %d step %d: derived session says %s ⊑ᵘ P = %v, fresh chase says %v\nprogram:\n%s\nrule: %s",
						seed, step, r, got, want, q, r)
				}
			}
		}
	}
}

// TestDeriveMatchesFreshCheckerStratified runs the same property through
// the negation encoding the stratified minimizer uses: random programs with
// negated EDB literals are encoded to pure Datalog (neg@ predicates), and
// the Derive chain over the encoding must agree with a fresh chase. This is
// the exact session shape minimize.StratifiedProgram drives.
func TestDeriveMatchesFreshCheckerStratified(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		p := randomStratified(rng)
		if p == nil {
			continue
		}
		enc := EncodeNegation(p)
		if enc.Validate() != nil {
			continue
		}
		probes := probeRules(enc, rng)
		ck, err := NewChecker(enc)
		if err != nil {
			t.Fatalf("seed %d: NewChecker: %v", seed, err)
		}
		q := enc.Clone()
		for _, r := range probes {
			if _, err := ck.ContainsRule(context.Background(), r); err != nil {
				t.Fatalf("seed %d: warmup: %v", seed, err)
			}
		}
		for step := 0; step < 3; step++ {
			d, ok := randomDelta(q, rng)
			if !ok {
				break
			}
			nck, err := ck.Derive(d)
			if err != nil {
				t.Fatalf("seed %d step %d: Derive: %v", seed, step, err)
			}
			ck = nck
			q = applyDelta(q, d)
			for _, r := range probes {
				got, err := ck.ContainsRule(context.Background(), r)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if want := groundTruth(t, q, r); got != want {
					t.Fatalf("seed %d step %d: derived %v, fresh %v for %s in\n%s", seed, step, got, want, r, q)
				}
			}
		}
	}
}

// randomStratified generates a random program with negation by moving one
// EDB body atom of some rules into the negated body (keeping safety: the
// atom's variables must stay bound by the remaining positive atoms).
func randomStratified(rng *rand.Rand) *ast.Program {
	p := workload.RandomProgram(rng, 2+rng.Intn(3))
	if p.Validate() != nil {
		return nil
	}
	negated := false
	for i := range p.Rules {
		r := &p.Rules[i]
		if len(r.Body) < 2 || rng.Intn(2) == 0 {
			continue
		}
		k := rng.Intn(len(r.Body))
		if r.Body[k].Pred != "A" && r.Body[k].Pred != "B" {
			continue // only negate EDB predicates: trivially stratified
		}
		cand := ast.Rule{Head: r.Head, NegBody: []ast.Atom{r.Body[k]}}
		cand.Body = append(append([]ast.Atom(nil), r.Body[:k]...), r.Body[k+1:]...)
		if cand.WellFormed() {
			*r = cand
			negated = true
		}
	}
	if !negated || p.Validate() != nil {
		return nil
	}
	return p
}

// TestDeriveConcurrentSessions exercises the shared plan cache and verdict
// store from concurrent independent sessions (run under -race): distinct
// goroutines walk Derive chains over the same programs, so they contend on
// the same content addresses.
func TestDeriveConcurrentSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := workload.RandomProgram(rng, 4)
	if p.Validate() != nil {
		t.Skip("unlucky seed")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ck, err := NewChecker(p)
			if err != nil {
				errs <- err
				return
			}
			q := p.Clone()
			probes := probeRules(p, rng)
			for step := 0; step < 3; step++ {
				for _, r := range probes {
					if _, err := ck.ContainsRule(context.Background(), r); err != nil {
						errs <- err
						return
					}
				}
				d, ok := randomDelta(q, rng)
				if !ok {
					return
				}
				if ck, err = ck.Derive(d); err != nil {
					errs <- err
					return
				}
				q = applyDelta(q, d)
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A verdict is stored only by a run on its own program: a session derived
// from a warmed parent answers a rule the parent already decided by deciding
// it again — by the θ-subsumption test or by a chase — never from the
// parent's memo. Both delta kinds are checked, against a private verdict
// store so the derived programs are never seen before, whatever -count.
func TestDeriveDoesNotInheritVerdicts(t *testing.T) {
	saved := defaultVerdicts
	t.Cleanup(func() { defaultVerdicts = saved })
	p := parser.MustParseProgram(`
		Dvg(x, z) :- Dva(x, z).
		Dvh(x) :- Dvb(x), Dvc(x).
	`)
	probes := parser.MustParseProgram(`
		Dvg(x, z) :- Dva(x, y), Dva(y, z).
		Dvg(x, x) :- Dva(x, x), Dvb(x).
	`).Rules
	weakened := p.Rules[1].WithoutBodyAtom(1)
	for _, d := range []Delta{{RuleIndex: 1}, {RuleIndex: 1, NewRule: &weakened}} {
		defaultVerdicts = &verdictStore{max: defaultVerdictStoreSize, cur: make(map[string]*progVerdicts)}
		ck, err := NewChecker(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range probes {
			if _, err := ck.ContainsRule(context.Background(), r); err != nil {
				t.Fatal(err)
			}
		}
		dc, err := ck.Derive(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range probes {
			before := dc.Stats()
			if _, err := dc.ContainsRule(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			after := dc.Stats()
			if after.VerdictsReused != before.VerdictsReused {
				t.Fatalf("delta %+v: %s answered from a memo the derived program never filled", d, r)
			}
			if after.VerdictsRecomputed+after.VerdictsSubsumed != before.VerdictsRecomputed+before.VerdictsSubsumed+1 {
				t.Fatalf("delta %+v: %s: stats %+v -> %+v, want one fresh decision", d, r, before, after)
			}
		}
	}
}
