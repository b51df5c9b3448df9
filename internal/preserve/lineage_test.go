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

// lineageTGDs is a fixed pool of candidate tgds over the predicates of
// workload.RandomProgram (binary A/B extensional, P/Q intentional) — the
// same mix of full, embedded and cross-predicate dependencies the
// Section XI optimizer generates.
var lineageTGDs = func() []ast.TGD {
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
// p — the delta shape equivopt accepts. ok=false when no rule admits one.
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

// verdicts probes s with every tgd through both entry points at every depth
// the optimizer uses, rendering the answers into one comparable string. The
// budget is small so embedded-tgd chases settle on Unknown quickly.
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

// apart renames every predicate of p and tgds to a name no other test uses,
// so a session over the result shares no plan with one over p.
func apart(p *ast.Program, tgds []ast.TGD) (*ast.Program, []ast.TGD) {
	atoms := func(as []ast.Atom) []ast.Atom {
		out := make([]ast.Atom, len(as))
		for i, a := range as {
			out[i] = a.Clone()
			out[i].Pred = "Iso" + a.Pred
		}
		return out
	}
	q := ast.NewProgram()
	for _, r := range p.Rules {
		q.Rules = append(q.Rules, ast.Rule{Head: atoms([]ast.Atom{r.Head})[0], Body: atoms(r.Body), NegBody: atoms(r.NegBody)})
	}
	ts := make([]ast.TGD, len(tgds))
	for i, t := range tgds {
		ts[i] = ast.NewTGD(atoms(t.Lhs), atoms(t.Rhs))
	}
	return q, ts
}

// TestSessionAfterCheckerDeriveHitsPlanCache walks the equivopt pattern: a
// containment checker and a preservation session side by side in one
// lineage, and after each accepted weakening both are opened afresh over the
// weakened program in the same lineage, the checker first. The new session's
// Pⁿ must be the plan the new checker just registered — a plan-cache hit, no
// miss — and the session must answer every preservation question as one
// opened over the program with its predicates renamed apart does, which
// prepares every plan it runs afresh.
func TestSessionAfterCheckerDeriveHitsPlanCache(t *testing.T) {
	steps := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(3))
		if p.Validate() != nil {
			continue
		}
		lin := eval.NewLineage()
		ck, err := chase.NewCheckerIn(p, lin)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := preserve.NewSessionIn(p, lin)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verdicts(t, s, lineageTGDs)
		cur := p
		for step := 0; step < 3; step++ {
			i, nr, ok := weakening(cur, rng)
			if !ok {
				break
			}
			cur = cur.ReplaceRule(i, nr)
			if ck, err = chase.NewCheckerIn(cur, ck.Lineage); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			before := lin.Stats()
			if s, err = preserve.NewSessionIn(cur, s.Lineage); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			after := lin.Stats()
			if after.PrepareHits != before.PrepareHits+1 || after.PrepareMisses != before.PrepareMisses {
				t.Fatalf("seed %d step %d: opening the session cost %d hits, %d misses; want Pⁿ as one hit",
					seed, step, after.PrepareHits-before.PrepareHits, after.PrepareMisses-before.PrepareMisses)
			}
			iso, isoTGDs := apart(cur, lineageTGDs)
			fresh, err := preserve.NewSession(iso)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got, want := verdicts(t, s, lineageTGDs), verdicts(t, fresh, isoTGDs); got != want {
				t.Fatalf("seed %d step %d: the lineage's session disagrees with an isolated one\nlineage:  %s\nisolated: %s\nprogram:\n%s",
					seed, step, got, want, cur)
			}
			steps++
		}
	}
	if steps < 10 {
		t.Fatalf("only %d weakening steps exercised", steps)
	}
}

// TestDeriveConcurrentSessions runs independent weakening chains over the
// process-wide plan cache — the only state sessions of different lineages
// share — opening a session per program, so the race detector sees the
// cache's synchronization under concurrent Lineage.Prepare lookups.
func TestDeriveConcurrentSessions(t *testing.T) {
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
			lin := eval.NewLineage()
			budget := chase.Budget{MaxAtoms: 200, MaxRounds: 6}
			for step := 0; step < 3; step++ {
				s, err := preserve.NewSessionIn(p, lin)
				if err != nil {
					errs[g] = err
					return
				}
				for depth := 1; depth <= 3; depth++ {
					if _, _, err := s.Check(context.Background(), lineageTGDs[:2], preserve.Options{Depth: depth, Budget: budget}); err != nil {
						errs[g] = err
						return
					}
					if _, _, err := s.CheckPreliminary(context.Background(), lineageTGDs[:2], preserve.Options{Depth: depth, Budget: budget}); err != nil {
						errs[g] = err
						return
					}
				}
				i, nr, ok := weakening(p, rng)
				if !ok {
					break
				}
				p = p.ReplaceRule(i, nr)
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

// TestSessionKeepsCallersProgram: a session over an alpha-renamed twin of a
// program prepared before runs on the twin's cached plan, and its checks,
// whose combination options it builds from its caller's program, answer as
// the twin's do.
func TestSessionKeepsCallersProgram(t *testing.T) {
	first := parser.MustParseProgram("Pkt(a, b) :- Pke(a, b), Pke(a, c).")
	renamed := parser.MustParseProgram("Pkt(x, y) :- Pke(x, y), Pke(x, w).")
	s1, err := preserve.NewSession(first)
	if err != nil {
		t.Fatal(err)
	}
	lin := eval.NewLineage()
	s, err := preserve.NewSessionIn(renamed, lin)
	if err != nil {
		t.Fatal(err)
	}
	if st := lin.Stats(); st.PrepareHits != 1 || st.PrepareMisses != 0 {
		t.Fatalf("the renamed twin did not hit the cached plan: %d hits, %d misses", st.PrepareHits, st.PrepareMisses)
	}
	tgds := []ast.TGD{parser.MustParseTGD("Pke(x, y) -> Pkt(x, y).")}
	v1, _, err1 := s1.Check(context.Background(), tgds, preserve.Options{})
	v, _, err := s.Check(context.Background(), tgds, preserve.Options{})
	if err1 != nil || err != nil || v != v1 {
		t.Fatalf("the twin answers %v (%v), the caller's session %v (%v)", v1, err1, v, err)
	}
}
