package preserve_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/workload"
)

// deriveTGDs is a fixed pool of candidate tgds over the predicates of
// workload.RandomProgram (binary A/B extensional, P/Q intentional) — the
// same mix of full, embedded and cross-predicate dependencies the
// Section XI optimizer generates.
var deriveTGDs = func() []ast.TGD {
	srcs := []string{
		"P(x, y) -> A(x, w).",
		"P(x, y) -> B(x, y).",
		"A(x, y) -> P(x, y).",
		"P(x, y), B(y, z) -> Q(x, z).",
		"Q(x, y) -> P(x, w).",
		"A(x, y) -> B(y, x).",
	}
	tgds := make([]ast.TGD, len(srcs))
	for i, s := range srcs {
		tgds[i] = parser.MustParseTGD(s)
	}
	return tgds
}()

// weakening picks a random same-head single-atom weakening of some rule of
// p — the delta shape equivopt feeds Session.Derive. ok=false when no rule
// admits one.
func weakening(p *ast.Program, rng *rand.Rand) (int, ast.Rule, bool) {
	for attempt := 0; attempt < 12; attempt++ {
		i := rng.Intn(len(p.Rules))
		r := p.Rules[i]
		if len(r.Body) < 2 {
			continue
		}
		cand := r.WithoutBodyAtom(rng.Intn(len(r.Body)))
		if cand.WellFormed() {
			return i, cand, true
		}
	}
	return 0, ast.Rule{}, false
}

// verdicts probes s with every pooled tgd through both consolidated entry
// points at every depth the optimizer uses, rendering the answers into one
// comparable string. The budget is small so embedded-tgd chases settle on
// Unknown quickly (identically for both sessions under comparison).
func verdicts(t *testing.T, s *preserve.Session, tgds []ast.TGD) string {
	t.Helper()
	budget := chase.Budget{MaxAtoms: 200, MaxRounds: 6}
	out := ""
	for _, tau := range tgds {
		for depth := 1; depth <= 3; depth++ {
			v, _, err := s.Check(context.Background(), []ast.TGD{tau}, preserve.Options{Depth: depth, Budget: budget})
			if err != nil {
				t.Fatalf("Check depth %d: %v", depth, err)
			}
			w, _, err := s.CheckPreliminary(context.Background(), []ast.TGD{tau}, preserve.Options{Depth: depth, Budget: budget})
			if err != nil {
				t.Fatalf("CheckPreliminary depth %d: %v", depth, err)
			}
			out += fmt.Sprintf("%v/%v;", v, w)
		}
	}
	return out
}

// TestDeriveMatchesFreshSession is the oracle property of the tentpole:
// a session carried through a chain of accepted one-rule weakenings by
// Derive answers every preservation question exactly as a session built
// fresh over the final program. The sessions are warmed before each delta
// so the per-depth entries really are patched, not lazily rebuilt.
func TestDeriveMatchesFreshSession(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(3))
		if p.Validate() != nil {
			continue
		}
		s, err := preserve.NewSessionIn(p, eval.NewLineage(eval.NewPlanCache(0)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verdicts(t, s, deriveTGDs) // warm every depth entry
		cur := p
		for step := 0; step < 3; step++ {
			i, nr, ok := weakening(cur, rng)
			if !ok {
				break
			}
			ns, err := s.Derive(i, &nr)
			if err != nil {
				t.Fatalf("seed %d step %d: Derive: %v", seed, step, err)
			}
			cur = cur.ReplaceRule(i, nr)
			fresh, err := preserve.NewSessionIn(cur, eval.NewLineage(eval.NewPlanCache(0)))
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			got := verdicts(t, ns, deriveTGDs)
			want := verdicts(t, fresh, deriveTGDs)
			if got != want {
				t.Fatalf("seed %d step %d: derived session disagrees with fresh\nderived: %s\nfresh:   %s\nprogram:\n%s",
					seed, step, got, want, cur)
			}
			s = ns
		}
	}
}

// TestDeriveLayeredProgram pins the oracle on a multi-stratum shape where
// the changed rule feeds later strata, exercising the cascade re-layering
// inside the patched unfoldings.
func TestDeriveLayeredProgram(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z), B(z, z).
		G(x, z) :- G(x, y), G(y, z).
		H(x, z) :- G(x, z), B(x, z).
		H(x, z) :- H(x, y), A(y, z).
	`)
	tgds := []ast.TGD{
		parser.MustParseTGD("G(x, z) -> A(x, w)."),
		parser.MustParseTGD("H(x, z) -> G(x, z)."),
		parser.MustParseTGD("G(x, y), B(y, z) -> H(x, z)."),
	}
	for i := 0; i < len(p.Rules); i++ {
		r := p.Rules[i]
		for k := range r.Body {
			nr := r.WithoutBodyAtom(k)
			if !nr.WellFormed() {
				continue
			}
			s, err := preserve.NewSessionIn(p, eval.NewLineage(eval.NewPlanCache(0)))
			if err != nil {
				t.Fatal(err)
			}
			verdicts(t, s, tgds)
			ns, err := s.Derive(i, &nr)
			if err != nil {
				t.Fatalf("rule %d atom %d: %v", i, k, err)
			}
			fresh, err := preserve.NewSessionIn(p.ReplaceRule(i, nr), eval.NewLineage(eval.NewPlanCache(0)))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := verdicts(t, ns, tgds), verdicts(t, fresh, tgds); got != want {
				t.Fatalf("rule %d atom %d: derived %s ≠ fresh %s", i, k, got, want)
			}
		}
	}
}

// TestDeriveFallbacks covers the deltas Derive must not patch: deletions
// and head-predicate changes rebuild (through the session's cache), and the
// rebuilt session matches a fresh one.
func TestDeriveFallbacks(t *testing.T) {
	p := parser.MustParseProgram(`
		P(x, y) :- A(x, y).
		P(x, z) :- P(x, y), P(y, z).
		Q(x, y) :- P(x, y), B(x, y).
	`)
	s, err := preserve.NewSessionIn(p, eval.NewLineage(eval.NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	verdicts(t, s, deriveTGDs)

	// Deletion: Q loses its only rule, shrinking the intentional set.
	ns, err := s.Derive(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := preserve.NewSessionIn(p.WithoutRule(2), eval.NewLineage(eval.NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verdicts(t, ns, deriveTGDs), verdicts(t, fresh, deriveTGDs); got != want {
		t.Fatalf("deletion: derived %s ≠ fresh %s", got, want)
	}

	// Head change: rule 2 now defines a new predicate.
	hc := parser.MustParseProgram(`R(x, y) :- P(x, y), B(x, y).`).Rules[0]
	ns, err = s.Derive(2, &hc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = preserve.NewSessionIn(p.ReplaceRule(2, hc), eval.NewLineage(eval.NewPlanCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verdicts(t, ns, deriveTGDs), verdicts(t, fresh, deriveTGDs); got != want {
		t.Fatalf("head change: derived %s ≠ fresh %s", got, want)
	}

	// Out-of-range index.
	if _, err := s.Derive(99, nil); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestDeriveConcurrentSessions runs independent derive chains over one
// shared plan cache — the only state sessions share — so the race detector
// sees the cache's synchronization under concurrent Lineage.Prepare lookups.
func TestDeriveConcurrentSessions(t *testing.T) {
	shared := eval.NewPlanCache(0)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			p := workload.RandomProgram(rng, 2+rng.Intn(3))
			if p.Validate() != nil {
				return
			}
			s, err := preserve.NewSessionIn(p, eval.NewLineage(shared))
			if err != nil {
				errs[g] = err
				return
			}
			budget := chase.Budget{MaxAtoms: 200, MaxRounds: 6}
			cur := p
			for step := 0; step < 3; step++ {
				for depth := 1; depth <= 3; depth++ {
					if _, _, err := s.Check(context.Background(), deriveTGDs[:2], preserve.Options{Depth: depth, Budget: budget}); err != nil {
						errs[g] = err
						return
					}
					if _, _, err := s.CheckPreliminary(context.Background(), deriveTGDs[:2], preserve.Options{Depth: depth, Budget: budget}); err != nil {
						errs[g] = err
						return
					}
				}
				i, nr, ok := weakening(cur, rng)
				if !ok {
					break
				}
				if s, err = s.Derive(i, &nr); err != nil {
					errs[g] = err
					return
				}
				cur = cur.ReplaceRule(i, nr)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// deletable picks a random rule whose head predicate has another rule, so
// deleting it keeps the intentional set — the delta deriveDelete transfers
// rather than rebuilds. ok=false when no rule qualifies.
func deletable(p *ast.Program, rng *rand.Rand) (int, bool) {
	heads := make(map[string]int)
	for _, r := range p.Rules {
		heads[r.Head.Pred]++
	}
	for attempt := 0; attempt < 12; attempt++ {
		i := rng.Intn(len(p.Rules))
		if heads[p.Rules[i].Head.Pred] > 1 {
			return i, true
		}
	}
	return 0, false
}

// TestDeriveDeleteMatchesFreshSession is the deletion half of the Derive
// oracle (the ROADMAP carry-over): a session carried across one-rule
// deletions — alone and interleaved with weakenings — answers every
// preservation question exactly as a session built fresh over the final
// program. The layered fixture keeps every head predicate two-ruled, so
// each deletion takes the transfer path, not the fallback.
func TestDeriveDeleteMatchesFreshSession(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z), B(z, z).
		G(x, z) :- G(x, y), G(y, z).
		H(x, z) :- G(x, z), B(x, z).
		H(x, z) :- H(x, y), A(y, z).
	`)
	tgds := []ast.TGD{
		parser.MustParseTGD("G(x, z) -> A(x, w)."),
		parser.MustParseTGD("H(x, z) -> G(x, z)."),
		parser.MustParseTGD("G(x, y), B(y, z) -> H(x, z)."),
	}
	for i := 0; i < len(p.Rules); i++ {
		s, err := preserve.NewSessionIn(p, eval.NewLineage(eval.NewPlanCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		verdicts(t, s, tgds) // warm every depth entry so deletion patches, not rebuilds
		ns, err := s.Derive(i, nil)
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		fresh, err := preserve.NewSessionIn(p.WithoutRule(i), eval.NewLineage(eval.NewPlanCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := verdicts(t, ns, tgds), verdicts(t, fresh, tgds); got != want {
			t.Fatalf("rule %d: derived %s ≠ fresh %s", i, got, want)
		}
	}

	// Randomized interleaved chains over generated programs.
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := workload.RandomProgram(rng, 3+rng.Intn(3))
		if q.Validate() != nil {
			continue
		}
		s, err := preserve.NewSessionIn(q, eval.NewLineage(eval.NewPlanCache(0)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verdicts(t, s, deriveTGDs)
		cur := q
		for step := 0; step < 3 && len(cur.Rules) > 2; step++ {
			var ns *preserve.Session
			if step%2 == 0 {
				i, ok := deletable(cur, rng)
				if !ok {
					break
				}
				ns, err = s.Derive(i, nil)
				if err != nil {
					t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
				}
				cur = cur.WithoutRule(i)
			} else {
				i, nr, ok := weakening(cur, rng)
				if !ok {
					break
				}
				ns, err = s.Derive(i, &nr)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				cur = cur.ReplaceRule(i, nr)
			}
			fresh, err := preserve.NewSessionIn(cur, eval.NewLineage(eval.NewPlanCache(0)))
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			got := verdicts(t, ns, deriveTGDs)
			want := verdicts(t, fresh, deriveTGDs)
			if got != want {
				t.Fatalf("seed %d step %d: derived session disagrees with fresh\nderived: %s\nfresh:   %s\nprogram:\n%s",
					seed, step, got, want, cur)
			}
			s = ns
		}
	}
}
