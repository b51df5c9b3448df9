package chase

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

// groundTruth decides r ⊑ᵘ p with a fresh, fully uncached chase — no plan
// cache, no verdict store, no mask — so the property tests compare the
// masked session against an independent oracle.
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

// probeRules builds the set of rules the property test checks under every
// mask: each original rule plus each of its well-formed single-atom or
// single-negated-literal deletions — exactly the shapes the Fig. 1/2 loops
// test — plus rules from an unrelated random program.
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
		for k := range r.NegBody {
			cand := r.Clone()
			cand.NegBody = append(cand.NegBody[:k:k], r.NegBody[k+1:]...)
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

// growMask switches off one more random rule of the n a mask covers, the
// way the Fig. 2 rule phase grows S; ok=false once every rule is off.
func growMask(skip []bool, rng *rand.Rand) bool {
	var on []int
	for i, off := range skip {
		if !off {
			on = append(on, i)
		}
	}
	if len(on) == 0 {
		return false
	}
	skip[on[rng.Intn(len(on))]] = true
	return true
}

// without is p − S for the rules S that skip switches off.
func without(p *ast.Program, skip []bool) *ast.Program {
	out := ast.NewProgram()
	for i, r := range p.Rules {
		if !skip[i] {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	return out
}

// TestDeriveMatchesFreshChecker is the core property of the masked
// containment test: the verdict a session over P derives for P − S by
// masking S — for any S, grown a rule at a time as the Fig. 2 rule phase
// grows it — is what a fresh uncached chase over P − S says. The session's
// own verdicts are warmed first: a masked test must not answer from them.
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
		for _, r := range probes {
			if _, err := ck.ContainsRule(context.Background(), r); err != nil {
				t.Fatalf("seed %d: warmup: %v", seed, err)
			}
		}
		skip := make([]bool, len(p.Rules))
		for step := 0; step < 4 && growMask(skip, rng); step++ {
			q := without(p, skip)
			for pi, r := range probes {
				got, err := ck.ContainsRuleMasked(context.Background(), r, skip)
				if err != nil {
					t.Fatalf("seed %d step %d probe %d: %v", seed, step, pi, err)
				}
				if want := groundTruth(t, q, r); got != want {
					t.Fatalf("seed %d step %d: masked session says %s ⊑ᵘ P − S = %v, fresh chase says %v\nP − S:\n%s",
						seed, step, r, got, want, q)
				}
			}
		}
	}
}

// TestDeriveMatchesFreshCheckerStratified runs the same property on
// programs with negated EDB literals, which a Checker decides through its
// negation encoding: masked tests of a session over the stratified program
// must agree with a fresh chase over the encoding of P − S, written out by
// the test (encodeRuleNeg) rather than by the Checker.
func TestDeriveMatchesFreshCheckerStratified(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		p := randomStratified(rng)
		if p == nil {
			continue
		}
		probes := probeRules(p, rng)
		ck, err := NewChecker(p)
		if err != nil {
			t.Fatalf("seed %d: NewChecker: %v", seed, err)
		}
		for _, r := range probes {
			if _, err := ck.ContainsRule(context.Background(), r); err != nil {
				t.Fatalf("seed %d: warmup: %v", seed, err)
			}
		}
		skip := make([]bool, len(p.Rules))
		for step := 0; step < 3 && growMask(skip, rng); step++ {
			q := ast.NewProgram()
			for _, r := range without(p, skip).Rules {
				q.Rules = append(q.Rules, encodeRuleNeg(r))
			}
			for _, r := range probes {
				got, err := ck.ContainsRuleMasked(context.Background(), r, skip)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if want := groundTruth(t, q, encodeRuleNeg(r)); got != want {
					t.Fatalf("seed %d step %d: masked %v, fresh %v for %s in\n%s", seed, step, got, want, r, q)
				}
			}
		}
	}
}

// encodeRuleNeg is the negation encoding written out for the tests: each
// negated literal !Q(t̄) becomes the atom neg@Q(t̄) at the end of the
// positive body.
func encodeRuleNeg(r ast.Rule) ast.Rule {
	enc := r.Clone()
	for _, a := range enc.NegBody {
		a.Pred = "neg@" + a.Pred
		enc.Body = append(enc.Body, a)
	}
	enc.NegBody = nil
	return enc
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

// TestDeriveConcurrentSessions runs masked tests concurrently on one plan
// (run under -race): each goroutine opens its own session over the same
// program, so every session runs the one cached plan under its own masks,
// and all of them contend on the same verdict-store content addresses.
func TestDeriveConcurrentSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := workload.RandomProgram(rng, 4)
	if p.Validate() != nil {
		t.Skip("unlucky seed")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	plans := make([]*eval.Prepared, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ck, err := NewChecker(p)
			if err != nil {
				errs <- err
				return
			}
			plans[g] = ck.prep
			probes := probeRules(p, rng)
			skip := make([]bool, len(p.Rules))
			for step := 0; step < 3 && growMask(skip, rng); step++ {
				for _, r := range probes {
					got, err := ck.ContainsRuleMasked(context.Background(), r, skip)
					if err != nil {
						errs <- err
						return
					}
					if want := groundTruth(t, without(p, skip), r); got != want {
						errs <- fmt.Errorf("goroutine %d step %d: masked %v, fresh %v for %s", g, step, got, want, r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, pr := range plans {
		if pr != plans[0] {
			t.Fatalf("session %d runs its own plan, not the cached one", g)
		}
	}
}

// TestDeriveDoesNotInheritVerdicts: a masked verdict lands only in the
// table of P − S − {r}, the program it was decided for. A session over a
// warmed P decides the masked test afresh — by the θ-subsumption test or by
// a chase, never from P's memo — leaves P's table as it was, and a session
// opened over P − S − {r} afterwards answers from the masked run's entry.
// A private verdict store keeps the programs unseen whatever -count.
func TestDeriveDoesNotInheritVerdicts(t *testing.T) {
	saved := defaultVerdicts
	t.Cleanup(func() { defaultVerdicts = saved })
	defaultVerdicts = &verdictStore{max: defaultVerdictStoreSize, cur: make(map[string]*progVerdicts)}
	p := parser.MustParseProgram(`
		Dvg(x, z) :- Dva(x, z).
		Dvh(x) :- Dvb(x), Dvc(x).
		Dvh(x) :- Dvb(x).
	`)
	probes := parser.MustParseProgram(`
		Dvg(x, z) :- Dva(x, y), Dva(y, z).
		Dvg(x, x) :- Dva(x, x), Dvb(x).
		Dvh(x) :- Dvb(x), Dvc(x).
	`).Rules
	ck, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range probes {
		if _, err := ck.ContainsRule(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	own := len(ck.pv.m)
	for _, skip := range [][]bool{{false, true, false}, {false, false, true}, {false, true, true}} {
		for _, r := range probes {
			before := ck.Stats()
			got, err := ck.ContainsRuleMasked(context.Background(), r, skip)
			if err != nil {
				t.Fatal(err)
			}
			after := ck.Stats()
			if after.VerdictsReused != before.VerdictsReused {
				t.Fatalf("mask %v: %s answered from a memo P − S never filled", skip, r)
			}
			if after.VerdictsRecomputed+after.VerdictsSubsumed != before.VerdictsRecomputed+before.VerdictsSubsumed+1 {
				t.Fatalf("mask %v: %s: stats %+v -> %+v, want one fresh decision", skip, r, before, after)
			}
			if len(ck.pv.m) != own {
				t.Fatalf("mask %v: %s: the masked verdict landed in P's table", skip, r)
			}
			sub, err := NewChecker(without(p, skip))
			if err != nil {
				t.Fatal(err)
			}
			if again, err := sub.ContainsRule(context.Background(), r); err != nil || again != got {
				t.Fatalf("mask %v: %s: a session over P − S says %v, %v; the masked test said %v", skip, r, again, err, got)
			}
			if st := sub.Stats(); st.VerdictsReused != 1 {
				t.Fatalf("mask %v: %s: a session over P − S did not find the masked verdict: %+v", skip, r, st)
			}
		}
	}
}

// TestContainsRuleMaskedRejectsAMaskOfTheWrongLength: a mask has one entry
// per rule of the session program, or is nil.
func TestContainsRuleMaskedRejectsAMaskOfTheWrongLength(t *testing.T) {
	p := parser.MustParseProgram(`G(x, z) :- A(x, z). G(x, z) :- G(x, y), G(y, z).`)
	ck, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, skip := range [][]bool{{}, {true}, {false, false, true}} {
		if _, err := ck.ContainsRuleMasked(context.Background(), p.Rules[1], skip); err == nil {
			t.Errorf("a mask of %d entries for 2 rules was accepted", len(skip))
		}
	}
}
