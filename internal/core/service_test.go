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
	d := db.New()
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
type isolated struct{ prep *eval.Prepared }

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
// session verb that takes a context: an already-expired deadline yields an
// error wrapping both eval.ErrCanceled and context.DeadlineExceeded, and the
// session keeps serving correct results afterwards (the shared stores are
// not poisoned).
func TestSessionDeadlineTypedErrors(t *testing.T) {
	prog, err := core.ParseProgram(serviceProgram)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	input := serviceDB(16, 3)
	goal := core.GroundAtom{Pred: "T", Args: []core.Const{intc(0), intc(1)}}
	verbs := map[string]func() error{
		"Eval":     func() error { _, _, err := sess.Eval(expired, input); return err },
		"EvalWith": func() error { _, _, err := sess.EvalWith(expired, input, 1<<20); return err },
		"Query": func() error {
			_, _, err := sess.Query(expired, input, ast.NewAtom("T", ast.Var("x"), ast.Var("y")))
			return err
		},
		"Explain":     func() error { _, _, err := sess.Explain(expired, input, goal); return err },
		"Materialize": func() error { _, _, err := sess.Materialize(expired, input); return err },
		"Minimize":    func() error { _, _, err := sess.Minimize(expired, core.MinimizeOptions{}); return err },
		"Compare":     func() error { _, err := sess.Compare(expired, other); return err },
	}
	for name, verb := range verbs {
		if err := verb(); !errors.Is(err, eval.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s with expired deadline: err = %v, want eval.ErrCanceled + DeadlineExceeded", name, err)
		}
	}

	// The session still answers correctly after every cancellation.
	out, _, err := sess.Eval(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := eval.Eval(prog, input)
	if err != nil {
		t.Fatal(err)
	}
	if factsKey(out) != factsKey(oracle) {
		t.Fatal("post-cancellation Eval diverged from the one-shot oracle")
	}
	eq, err := sess.Compare(context.Background(), other)
	if err != nil || !eq {
		t.Fatalf("post-cancellation Compare = %v, %v; want true", eq, err)
	}

	// A MaxDerived request still returns the typed budget error.
	if _, _, err := sess.EvalWith(context.Background(), serviceDB(64, 1), 3); !errors.Is(err, eval.ErrBudget) {
		t.Fatalf("EvalWith: err = %v, want eval.ErrBudget", err)
	}
}

// TestSessionStatsAccountCompare pins the accounting contract of the
// containment verbs: Compare folds the checker work of each direction into
// the Stats() of the session that ran it, like every other session verb,
// and a second Compare runs on the same checker — no new plan lookup.
func TestSessionStatsAccountCompare(t *testing.T) {
	// Fresh predicates: the verdict store is process-wide.
	pre := fmt.Sprintf("Acc%d", time.Now().UnixNano())
	p1, err := core.ParseProgram(strings.ReplaceAll("@T(x,z) :- @E(x,z).\n@T(x,z) :- @T(x,y), @T(y,z).", "@", pre))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := core.ParseProgram(strings.ReplaceAll("@T(x,z) :- @E(x,z).\n@T(x,z) :- @E(x,y), @T(y,z).", "@", pre))
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
	lookups := func(st core.EvalStats) int { return st.PrepareHits + st.PrepareMisses }
	verdicts := func(st core.EvalStats) int {
		return st.VerdictsReused + st.VerdictsRecomputed + st.VerdictsSubsumed
	}

	before, reqsBefore := s1.Stats()
	for i := 0; i < 2; i++ {
		// P₂ ⊑ᵘ P₁ holds and P₁ ⊑ᵘ P₂ does not: both directions run.
		if eq, err := s1.Compare(context.Background(), s2); err != nil || eq {
			t.Fatalf("Compare #%d = %v, %v; want false", i+1, eq, err)
		}
		st, reqs := s1.Stats()
		if reqs != reqsBefore+1 {
			t.Fatalf("Compare #%d accounted %d requests on s1, want 1", i+1, reqs-reqsBefore)
		}
		if verdicts(st) <= verdicts(before) {
			t.Fatalf("Compare #%d accounted no containment verdicts: %+v", i+1, st.ReuseStats)
		}
		// The first Compare builds the checker and chases, the second
		// reuses the checker and its verdicts.
		if i == 0 && st.Rounds <= before.Rounds {
			t.Fatalf("the first Compare accounted no chase rounds: %+v", st.FixpointStats)
		}
		if built := lookups(st) > lookups(before); built != (i == 0) {
			t.Fatalf("Compare #%d: plan lookups %d -> %d; the checker is built once, by the first", i+1, lookups(before), lookups(st))
		}
		if _, reqs2 := s2.Stats(); reqs2 != uint64(i+1) {
			t.Fatalf("after Compare #%d s2 accounted %d requests, want %d", i+1, reqs2, i+1)
		}
		before, reqsBefore = st, reqs
	}
}

// TestSessionKeepsCallersProgram: a session over an alpha-renamed twin of a
// program prepared before runs the twin's cached plan, yet its Minimize
// output is written in its own caller's variables.
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

// TestSessionExplain: Explain is a session request like Eval — it runs the
// session's (possibly shared, alpha-renamed) plan goal-directed and reads the
// proof back from the goal-cut partial database, names rules and variables
// after the caller's program so the tree verifies against it, is accounted in
// Stats, and fails with the evaluator's typed errors.
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
	in := db.New()
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
		if err := explain.Verify(renamed, in, d); err != nil {
			t.Fatalf("proof of %v does not verify against the caller's program: %v\n%s", goal, err, d)
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
	if _, _, err := sess.Explain(gone, in, core.GroundAtom{Pred: "T", Args: []core.Const{intc(0), intc(6)}}); !errors.Is(err, eval.ErrCanceled) {
		t.Fatalf("canceled context: %v, want eval.ErrCanceled", err)
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

// TestExactContainmentRefusesNegation: the containment entry points that
// answer a bool (or a wire verdict) that cannot say Unknown answer
// chase.ErrNegation when either side has negation — the encoding a Checker
// decides negation through cannot refute — while chase.UniformlyContains
// answers the same pair with a Verdict: Yes or Unknown, never No.
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
	_, err1 := sp.Compare(ctx, sn)
	_, err2 := sn.Compare(ctx, sp)
	_, err3 := core.UniformlyEquivalent(pure, neg)
	for i, err := range []error{ckErr, ruleErr, err1, err2, err3} {
		if !errors.Is(err, chase.ErrNegation) {
			t.Errorf("entry point %d: err = %v, want chase.ErrNegation", i, err)
		}
	}
	for i, pair := range [][2]*core.Program{{pure, neg}, {neg, pure}} {
		want := []chase.Verdict{chase.Yes, chase.Unknown}[i]
		if v, _, err := chase.UniformlyContains(pair[0], pair[1]); err != nil || v != want {
			t.Errorf("containment %d: %v, %v; want %v", i, v, err, want)
		}
	}
}
