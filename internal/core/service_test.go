package core_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/explain"
)

// serviceProgram has recursion, a redundant atom (for minimize) and several
// strata — enough structure for the shared-cache property test to exercise
// plans, verdicts and streaming paths.
const serviceProgram = `
	T(x,y) :- E(x,y).
	T(x,z) :- E(x,y), T(y,z).
	Reach(x) :- Src(x).
	Reach(y) :- Reach(x), E(x,y), E(x,y).
	Pair(x,y) :- Reach(x), Reach(y).
`

func serviceDB(n, seed int) *core.Database {
	d := core.NewDatabase()
	for i := 0; i < n; i++ {
		d.AddTuple("E", []core.Const{intc(i), intc((i*7 + seed) % n)})
	}
	d.AddTuple("Src", []core.Const{intc(seed % n)})
	return d
}

func intc(i int) core.Const { return ast.Int(int64(i)) }

// factsKey renders a database's facts as one sorted string — the byte
// identity the property test compares.
func factsKey(d *core.Database) string {
	facts := d.Facts()
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestSharedPlanCachePropertyMatchesIsolated is the satellite property
// test: N concurrent tenants sharing one session over the process-wide plan
// cache must produce results byte-identical to isolated runs, across the
// strategy (Eval / EvalWith / Query) × worker × goal grid. Run under -race
// in CI.
func TestSharedPlanCachePropertyMatchesIsolated(t *testing.T) {
	prog, err := core.ParseProgram(serviceProgram)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const iters = 6

	// Oracle: a plan built by eval.Prepare outside any cache per (worker,
	// iter, strategy) — one-shot runs that cannot share anything.
	type key struct{ w, i, strat int }
	want := make(map[key]string)
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			for strat := 0; strat < 3; strat++ {
				prep, err := eval.Prepare(prog)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runStrategy(isolated{prep}, strat, w, i)
				if err != nil {
					t.Fatal(err)
				}
				want[key{w, i, strat}] = res
			}
		}
	}

	// Shared: every worker drives one session (the process-wide plan cache,
	// one session per program) concurrently.
	shared, err := core.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for strat := 0; strat < 3; strat++ {
					res, err := runStrategy(shared, strat, w, i)
					if err != nil {
						errs <- err
						return
					}
					if res != want[key{w, i, strat}] {
						errs <- fmt.Errorf("worker %d iter %d strat %d: shared-cache result diverged from isolated run", w, i, strat)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// evaluator is the part of core.Session the strategies drive.
type evaluator interface {
	Eval(context.Context, *core.Database) (*core.Database, core.EvalStats, error)
	EvalWith(context.Context, *core.Database, int) (*core.Database, core.EvalStats, error)
	Query(context.Context, *core.Database, core.Atom) ([][]core.Const, core.EvalStats, error)
}

// isolated is an evaluator over a plan no cache holds.
type isolated struct{ prep *core.Prepared }

func (e isolated) Eval(ctx context.Context, input *core.Database) (*core.Database, core.EvalStats, error) {
	return e.EvalWith(ctx, input, 0)
}

func (e isolated) EvalWith(ctx context.Context, input *core.Database, maxDerived int) (*core.Database, core.EvalStats, error) {
	out, _, st, err := e.prep.Run(ctx, input, nil, maxDerived)
	return out, st, err
}

func (e isolated) Query(ctx context.Context, input *core.Database, query core.Atom) ([][]core.Const, core.EvalStats, error) {
	out, st, err := e.Eval(ctx, input)
	if err != nil {
		return nil, st, err
	}
	return db.Select(out, query), st, nil
}

// runStrategy executes one (strategy, worker, iter) cell and returns a
// deterministic string rendering of the result.
func runStrategy(sess evaluator, strat, w, i int) (string, error) {
	ctx := context.Background()
	input := serviceDB(12+i, w+1)
	switch strat {
	case 0:
		out, _, err := sess.Eval(ctx, input)
		if err != nil {
			return "", err
		}
		return factsKey(out), nil
	case 1:
		// A generous budget: results must still be the full model.
		out, _, err := sess.EvalWith(ctx, input, 1<<20)
		if err != nil {
			return "", err
		}
		return factsKey(out), nil
	default:
		rows, _, err := sess.Query(ctx, input, ast.NewAtom("T", ast.Var("x"), ast.Var("y")))
		if err != nil {
			return "", err
		}
		parts := make([]string, len(rows))
		for j, row := range rows {
			cells := make([]string, len(row))
			for k, c := range row {
				cells[k] = fmt.Sprint(c)
			}
			parts[j] = strings.Join(cells, ",")
		}
		sort.Strings(parts)
		return strings.Join(parts, "\n"), nil
	}
}

// TestSessionDeadlineTypedErrors pins the cancellation contract on every
// session verb: an already-expired deadline yields an error wrapping both
// core.ErrCanceled and context.DeadlineExceeded, and the session keeps
// serving correct results afterwards (the shared stores are not poisoned).
func TestSessionDeadlineTypedErrors(t *testing.T) {
	prog, err := core.ParseProgram(serviceProgram)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	input := serviceDB(16, 3)
	if _, _, err := sess.Eval(expired, input); !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Eval with expired deadline: err = %v, want ErrCanceled + DeadlineExceeded", err)
	}
	if _, _, err := sess.Minimize(expired, core.MinimizeOptions{}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Minimize with expired deadline: err = %v, want ErrCanceled", err)
	}
	if _, err := sess.ContainsRule(expired, prog.Rules[0]); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("ContainsRule with expired deadline: err = %v, want ErrCanceled", err)
	}
	tgd, err := core.ParseTGD("T(x,y), T(y,z) -> T(x,z).")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Preserve(expired, []core.TGD{tgd}, core.PreserveOptions{}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Preserve with expired deadline: err = %v, want ErrCanceled", err)
	}

	// The session still answers correctly after every cancellation.
	out, _, err := sess.Eval(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := core.Eval(prog, input, core.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if factsKey(out) != factsKey(oracle) {
		t.Fatal("post-cancellation Eval diverged from the one-shot oracle")
	}
	ok, err := sess.ContainsRule(context.Background(), prog.Rules[0])
	if err != nil || !ok {
		t.Fatalf("post-cancellation ContainsRule = %v, %v; want true", ok, err)
	}

	// A MaxDerived request still returns the typed budget error.
	if _, _, err := sess.EvalWith(context.Background(), serviceDB(64, 1), 3); !errors.Is(err, core.ErrBudget) {
		t.Fatalf("EvalWith: err = %v, want ErrBudget", err)
	}
}

// TestSessionStatsAccountPreserve pins the accounting contract of the
// preservation verbs: Preserve and PreservePreliminary fold their chase
// rounds and plan-cache lookups into Session.Stats() like every other
// session verb, so session totals do not undercount preservation work.
func TestSessionStatsAccountPreserve(t *testing.T) {
	prog, err := core.ParseProgram("T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z).")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	tgd, err := core.ParseTGD("T(x,y), T(y,z) -> T(x,z).")
	if err != nil {
		t.Fatal(err)
	}

	before, evalsBefore := sess.Stats()
	if _, _, err := sess.Preserve(context.Background(), []core.TGD{tgd}, core.PreserveOptions{}); err != nil {
		t.Fatal(err)
	}
	mid, evalsMid := sess.Stats()
	if evalsMid != evalsBefore+1 {
		t.Fatalf("Preserve accounted %d requests, want 1", evalsMid-evalsBefore)
	}
	if mid.Rounds <= before.Rounds {
		t.Fatalf("Preserve accounted no chase rounds: %d -> %d", before.Rounds, mid.Rounds)
	}
	if mid.PrepareHits+mid.PrepareMisses <= before.PrepareHits+before.PrepareMisses {
		t.Fatal("Preserve accounted no plan-cache lookups")
	}

	if _, _, err := sess.PreservePreliminary(context.Background(), []core.TGD{tgd}, core.PreserveOptions{}); err != nil {
		t.Fatal(err)
	}
	after, evalsAfter := sess.Stats()
	if evalsAfter != evalsMid+1 {
		t.Fatalf("PreservePreliminary accounted %d requests, want 1", evalsAfter-evalsMid)
	}
	if after.Rounds <= mid.Rounds {
		t.Fatalf("PreservePreliminary accounted no chase rounds: %d -> %d", mid.Rounds, after.Rounds)
	}
}

// TestSessionKeepsCallersProgram: a session over an alpha-renamed twin of a
// program prepared before runs the twin's cached plan, yet its Program() and
// Minimize output are written in its own caller's variables.
func TestSessionKeepsCallersProgram(t *testing.T) {
	first, err := core.ParseProgram("Kct(a,b) :- Kce(a,b), Kce(a,c).")
	if err != nil {
		t.Fatal(err)
	}
	renamed, err := core.ParseProgram("Kct(x,y) :- Kce(x,y), Kce(x,w).")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.NewSession(first)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.NewSession(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Prepared() != s1.Prepared() {
		t.Fatal("the renamed twin did not share the cached plan")
	}
	if got, want := s2.Program().String(), renamed.String(); got != want {
		t.Fatalf("Program() = %q, want the caller's %q", got, want)
	}
	min, _, err := s2.Minimize(context.Background(), core.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(min.String()), "Kct(x, y) :- Kce(x, y)."; got != want {
		t.Fatalf("Minimize = %q, want %q", got, want)
	}
}

// TestSessionCompareConcurrent cross-compares sessions from many
// goroutines in both directions — the sequential (never nested) locking
// must not deadlock, and verdicts must be stable. Run under -race in CI.
func TestSessionCompareConcurrent(t *testing.T) {
	base := "T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z)."
	redundant := "T(x,y) :- E(x,y), E(x,y).\nT(x,z) :- E(x,y), T(y,z)."
	p1, err := core.ParseProgram(base)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.ParseProgram(redundant)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.NewSession(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.NewSession(p2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := s1, s2
			if g%2 == 1 {
				a, b = s2, s1
			}
			for i := 0; i < 4; i++ {
				eq, err := a.Compare(context.Background(), b)
				if err != nil {
					errs <- err
					return
				}
				if !eq {
					errs <- fmt.Errorf("goroutine %d: programs not equivalent", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionExplain: Explain is a session request like Eval — it runs on the
// session's (possibly shared, alpha-renamed) plan, names rules and variables
// after Program() so the tree verifies against it, is accounted in Stats, and
// fails with the evaluator's typed errors.
func TestSessionExplain(t *testing.T) {
	ctx := context.Background()
	first, err := core.ParseProgram("T(a,b) :- E(a,b).\nT(a,c) :- E(a,b), T(b,c).\nIso(a) :- Src(a), !T(a,a).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewSession(first); err != nil {
		t.Fatal(err)
	}
	renamed, err := core.ParseProgram("T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z).\nIso(x) :- Src(x), !T(x,x).")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(renamed)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewDatabase()
	for i := 0; i < 6; i++ {
		in.AddTuple("E", []core.Const{intc(i), intc(i + 1)})
	}
	in.AddTuple("Src", []core.Const{intc(2)})

	_, reqs := sess.Stats()
	for _, goal := range []core.GroundAtom{
		{Pred: "T", Args: []core.Const{intc(0), intc(6)}},
		{Pred: "Iso", Args: []core.Const{intc(2)}},
		{Pred: "E", Args: []core.Const{intc(0), intc(1)}},
	} {
		d, ok, err := sess.Explain(ctx, in, goal)
		if err != nil || !ok {
			t.Fatalf("Explain(%v): ok=%v err=%v", goal, ok, err)
		}
		if err := explain.Verify(sess.Program(), in, d); err != nil {
			t.Fatalf("proof of %v does not verify against the session program: %v\n%s", goal, err, d)
		}
	}
	if d, ok, err := sess.Explain(ctx, in, core.GroundAtom{Pred: "T", Args: []core.Const{intc(6), intc(0)}}); d != nil || ok || err != nil {
		t.Fatalf("absent fact: %v %v %v", d, ok, err)
	}
	st, after := sess.Stats()
	if after != reqs+4 || st.Firings == 0 || st.BindingsPipelined == 0 {
		t.Fatalf("4 explains accounted as %d requests, stats %+v", after-reqs, st)
	}

	bad := in.Clone()
	bad.AddTuple("T", []core.Const{intc(1), intc(2), intc(3)})
	if _, _, err := sess.Explain(ctx, bad, core.GroundAtom{Pred: "T", Args: []core.Const{intc(0), intc(6)}}); !errors.Is(err, eval.ErrArity) {
		t.Fatalf("T/3 input: %v, want ErrArity", err)
	}
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := sess.Explain(gone, in, core.GroundAtom{Pred: "T", Args: []core.Const{intc(0), intc(6)}}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled context: %v, want ErrCanceled", err)
	}
}

// TestStratifiedPlanSeparation: a Session over a program with negation runs
// the program's stratified plan, filed under the program's canonical form,
// and a minimization of the same program runs the negation encoding, filed
// under the encoding's. Whichever comes first, neither is handed the other's
// plan: the session evaluates !Reach(x) as negation, and the minimizer keeps
// !Reach(x), which Unreach needs.
func TestStratifiedPlanSeparation(t *testing.T) {
	for _, minimizeFirst := range []bool{false, true} {
		// Fresh predicates for each order: the plan cache is process-wide.
		src := fmt.Sprintf(`
			%[1]sReach(x) :- %[1]sSrc(x).
			%[1]sReach(y) :- %[1]sReach(x), %[1]sE(x, y).
			%[1]sUnreach(x) :- %[1]sNode(x), !%[1]sReach(x).
			%[1]sSrc(1). %[1]sE(1, 2). %[1]sNode(1). %[1]sNode(2). %[1]sNode(3).
		`, fmt.Sprintf("Sep%v", minimizeFirst))
		res, err := core.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Program
		unreach := p.Rules[2].Head.Pred
		evalOnce := func() {
			s, err := core.NewSession(p)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := s.Eval(context.Background(), core.FromFacts(res.Facts))
			if err != nil {
				t.Fatal(err)
			}
			if got := db.Select(out, ast.NewAtom(unreach, ast.Var("x"))); len(got) != 1 || got[0][0] != ast.Int(3) {
				t.Fatalf("minimize first %v: %s = %v, want [[3]]", minimizeFirst, unreach, got)
			}
		}
		minimizeOnce := func() {
			min, trace, err := core.MinimizeProgram(p, core.MinimizeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if trace.AtomsRemoved()+trace.RulesRemoved() != 0 || !min.Equal(p) {
				t.Fatalf("minimize first %v: a minimal program lost %d atom(s) and %d rule(s):\n%s",
					minimizeFirst, trace.AtomsRemoved(), trace.RulesRemoved(), min)
			}
		}
		if minimizeFirst {
			minimizeOnce()
			evalOnce()
			minimizeOnce()
		} else {
			evalOnce()
			minimizeOnce()
			evalOnce()
		}
	}
}

// TestExactContainmentRefusesNegation: the facade's exact containment entry
// points answer chase.ErrNegation, not a verdict, when either side has
// negation — the encoding a Checker decides negation through cannot refute.
func TestExactContainmentRefusesNegation(t *testing.T) {
	neg, err := core.ParseProgram(`A(x) :- B(x), !C(x).`)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := core.ParseProgram(`A(x) :- B(x).`)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := core.NewSession(neg)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := core.NewSession(pure)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, ckErr := core.NewContainmentChecker(neg)
	ck, err := core.NewContainmentChecker(pure)
	if err != nil {
		t.Fatal(err)
	}
	_, ruleErr := ck.ContainsRule(neg.Rules[0])
	_, err1 := sn.ContainsRule(ctx, pure.Rules[0])
	_, err2 := sp.ContainsRule(ctx, neg.Rules[0])
	_, _, err3 := sp.Contains(ctx, neg)
	_, err4 := sp.Compare(ctx, sn)
	_, err5 := sn.Compare(ctx, sp)
	_, _, err6 := core.UniformlyContains(pure, neg)
	for i, err := range []error{ckErr, ruleErr, err1, err2, err3, err4, err5, err6} {
		if !errors.Is(err, chase.ErrNegation) {
			t.Errorf("entry point %d: err = %v, want chase.ErrNegation", i, err)
		}
	}
}
