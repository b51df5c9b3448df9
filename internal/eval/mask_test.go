package eval

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

func mustParseProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	res, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return res.Program
}

func parseFacts(t *testing.T, src string) *db.Database {
	t.Helper()
	res, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse facts: %v", err)
	}
	return db.FromFacts(res.Facts)
}

// maskOf is the mask over n rules that switches off the rules idxs.
func maskOf(n int, idxs ...int) []bool {
	skip := make([]bool, n)
	for _, i := range idxs {
		skip[i] = true
	}
	return skip
}

// unmasked is p − S for the rules S that skip switches off.
func unmasked(p *ast.Program, skip []bool) *ast.Program {
	out := ast.NewProgram()
	for i, r := range p.Rules {
		if !skip[i] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}

// checkMasked asserts that pr run with skip is a fresh Prepare of
// Program() − S: the same model with no goal, and with each of goals the
// answer the fresh model gives.
func checkMasked(t *testing.T, pr *Prepared, skip []bool, input *db.Database, goals []ast.GroundAtom) {
	t.Helper()
	sub := unmasked(pr.Program(), skip)
	want, _, err := mustPrepare(sub).Eval(input)
	if err != nil {
		t.Fatal(err)
	}
	got, reached, _, err := pr.RunMasked(context.Background(), input, nil, 0, skip)
	if err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Error("a run with no goal reported it reached")
	}
	if !got.Equal(want) {
		t.Fatalf("masked run differs from a fresh plan of\n%s\nmasked:\n%s\nfresh:\n%s", sub, got, want)
	}
	for _, g := range goals {
		_, reached, _, err := pr.RunMasked(context.Background(), input, &g, 0, skip)
		if err != nil {
			t.Fatal(err)
		}
		if reached != want.Has(g) {
			t.Fatalf("goal %v: masked run reached = %v, the fresh model holds it: %v\n%s", g, reached, want.Has(g), sub)
		}
	}
}

// mustPrepare is Prepare for programs a test knows valid.
func mustPrepare(p *ast.Program) *Prepared {
	pr, err := Prepare(p)
	if err != nil {
		panic(err)
	}
	return pr
}

// TestPreparedDeriveStratified: the plan P − S derives from a stratified P by
// a mask runs on P's strata, which stratify every subprogram, and evaluates
// exactly like a fresh Prepare of P − S — with and without a goal.
func TestPreparedDeriveStratified(t *testing.T) {
	p := mustParseProgram(t, `
		Reach(x, y) :- Edge(x, y).
		Reach(x, z) :- Reach(x, y), Edge(y, z).
		Isolated(x) :- Node(x), !Touched(x).
		Touched(x) :- Edge(x, y).
		Touched(y) :- Edge(x, y).
	`)
	pr := mustPrepare(p)
	d := parseFacts(t, `
		Node(0). Node(1). Node(2). Node(3).
		Edge(0, 1). Edge(1, 2).
	`)
	goals := []ast.GroundAtom{ga("Reach", 0, 2), ga("Reach", 0, 1), ga("Isolated", 3), ga("Isolated", 2), ga("Isolated", 0)}
	for _, skip := range [][]bool{
		maskOf(5),
		maskOf(5, 1),    // the recursive Reach rule
		maskOf(5, 4),    // Touched loses its second rule: node 2 turns isolated
		maskOf(5, 3, 4), // Touched is empty: every node is isolated
		maskOf(5, 0, 2), // Reach from the recursive rule alone, no Isolated
	} {
		checkMasked(t, pr, skip, d, goals)
	}
}

// TestPreparedDeriveChainPure walks the Fig. 2 rule phase's masks on a pure
// recursive program: one more rule switched off per step, each masked run of
// the one plan against a fresh Prepare of what is left.
func TestPreparedDeriveChainPure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := workload.InjectRedundantRules(workload.TransitiveClosure(), 3, rng)
	if p.Validate() != nil {
		t.Fatal("workload generated an invalid program")
	}
	pr := mustPrepare(p)
	d := parseFacts(t, `A(0, 1). A(1, 2). A(2, 3).`)
	full, _, err := pr.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	goals := append(full.SortedFacts(), ga("G", 3, 0))
	skip := maskOf(len(p.Rules))
	for i := len(p.Rules) - 1; i > 0; i-- {
		skip[i] = true
		checkMasked(t, pr, skip, d, goals)
	}
}

// randomLayeredProgram draws a pure program over intentional predicates
// P0..P3 and extensional A, B whose dependence graph has components of every
// shape — singletons, self-loops, cycles through several predicates, chains
// between them — so masks split, shrink and dissolve groups.
func randomLayeredProgram(rng *rand.Rand, nRules int) *ast.Program {
	idb := []string{"P0", "P1", "P2", "P3"}
	vars := []string{"x", "y", "z"}
	atom := func(pred string) ast.Atom {
		return ast.NewAtom(pred, ast.Var(vars[rng.Intn(3)]), ast.Var(vars[rng.Intn(3)]))
	}
	p := ast.NewProgram()
	for len(p.Rules) < nRules {
		r := ast.Rule{Head: atom(idb[rng.Intn(len(idb))])}
		for n := 1 + rng.Intn(3); len(r.Body) < n; {
			if rng.Intn(2) == 0 {
				r.Body = append(r.Body, atom(idb[rng.Intn(len(idb))]))
			} else {
				r.Body = append(r.Body, atom([]string{"A", "B"}[rng.Intn(2)]))
			}
		}
		if r.WellFormed() {
			p.Rules = append(p.Rules, r)
		}
	}
	return p
}

// TestDeriveScheduleMatchesFresh: over random programs whose components
// split and dissolve as rules go, and random growing masks, P's schedule
// serves every P − S: each masked run has the model and the goal answers of a
// fresh Prepare of P − S, whose schedule is P − S's own. Masked and unmasked
// runs of the one plan run concurrently (run under -race): a mask is the
// run's, never the plan's.
func TestDeriveScheduleMatchesFresh(t *testing.T) {
	runs := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q *ast.Program
		if seed%2 == 0 {
			q = workload.RandomProgram(rng, 2+rng.Intn(5))
		} else {
			q = randomLayeredProgram(rng, 3+rng.Intn(6))
		}
		if q.Validate() != nil {
			continue
		}
		pr := mustPrepare(q)
		input := workload.RandomDB(rng, q, 4, 6)
		full, _, err := pr.Eval(input)
		if err != nil {
			t.Fatal(err)
		}
		facts := full.SortedFacts()
		var goals []ast.GroundAtom
		for k := 0; k < 4 && len(facts) > 0; k++ {
			goals = append(goals, facts[rng.Intn(len(facts))])
		}
		skip := maskOf(len(q.Rules))
		for step := 0; step < 5; step++ {
			skip[rng.Intn(len(skip))] = true
			var wg sync.WaitGroup
			var parentErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, _, err := pr.Eval(input)
				if err == nil && !out.Equal(full) {
					t.Errorf("seed %d: an unmasked run beside a masked one lost its model", seed)
				}
				parentErr = err
			}()
			checkMasked(t, pr, append([]bool(nil), skip...), input, goals)
			wg.Wait()
			if parentErr != nil {
				t.Fatal(parentErr)
			}
			runs++
		}
	}
	if runs < 500 {
		t.Fatalf("only %d masked runs checked", runs)
	}
}

// TestMaskedRunLowersOnlyWhatItRuns: a masked rule contributes no variant,
// so it is never lowered, and the rules a masked run does fire compile
// through the plan's own memos — the entries a later unmasked run finds.
func TestMaskedRunLowersOnlyWhatItRuns(t *testing.T) {
	p := mustParseProgram(t, `
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z), A(x, w).
		G(x, z) :- G(x, y), G(y, z).
	`)
	pr := mustPrepare(p)
	if len(pr.units) != 1 || len(pr.units[0].rules) != 3 {
		t.Fatalf("want one recursive group of three rules, have %d units", len(pr.units))
	}
	input := workload.Chain("A", 6)
	_, _, st, err := pr.RunMasked(context.Background(), input, nil, 0, maskOf(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 3 {
		t.Fatalf("%d rounds: the masked run ran no delta round", st.Rounds)
	}
	for i, m := range pr.memos {
		if got := len(m.lowered); (i == 2) != (got == 0) {
			t.Errorf("rule %d has %d lowered entries after a run masking rule 2", i, got)
		}
	}
	checkMasked(t, pr, maskOf(3, 2), input, []ast.GroundAtom{ga("G", 0, 5), ga("G", 5, 0)})
}

// TestRunMaskedRejectsAMaskOfTheWrongLength: a mask has one entry per rule
// of the plan's program, or is nil.
func TestRunMaskedRejectsAMaskOfTheWrongLength(t *testing.T) {
	pr := mustPrepare(mustParseProgram(t, `G(x, z) :- A(x, z). G(x, z) :- G(x, y), G(y, z).`))
	for _, skip := range [][]bool{{}, {true}, {false, false, true}} {
		if _, _, _, err := pr.RunMasked(context.Background(), workload.Chain("A", 3), nil, 0, skip); err == nil {
			t.Errorf("a mask of %d entries for 2 rules ran", len(skip))
		}
	}
}

// sameRun fails unless a and b hold the same facts in the same insertion
// order with the same round stamps.
func sameRun(t *testing.T, a, b *db.Database) {
	t.Helper()
	if a.String() != b.String() || a.Round() != b.Round() {
		t.Fatalf("databases differ:\n%s\nvs\n%s", a, b)
	}
	for _, pred := range a.Preds() {
		ra, rb := a.Relation(pred), b.Relation(pred)
		for i := 0; i < ra.Len(); i++ {
			if ra.RoundOf(i) != rb.RoundOf(i) {
				t.Fatalf("%s tuple %d: round %d vs %d", pred, i, ra.RoundOf(i), rb.RoundOf(i))
			}
		}
	}
}

// TestGoalRunSaturatesWhenGoalMissed: a goal-directed run whose goal is not
// derivable returns exactly the database of the same run without a goal —
// every relation, insertion order and round stamp — masked or not. The
// evaluator restricts nothing to what can reach the goal: callers that read
// the returned database (the chase's tgd phase, Session.Explain) see the
// whole fixpoint of what the mask leaves on.
func TestGoalRunSaturatesWhenGoalMissed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		pr := mustPrepare(p)
		in := workload.RandomDB(rng, p, 4, 3)
		skip := make([]bool, len(p.Rules))
		if seed%2 == 1 {
			skip[rng.Intn(len(skip))] = true
		}
		full, reachedNil, _, err := pr.RunMasked(context.Background(), in, nil, 0, skip)
		if err != nil || reachedNil {
			t.Fatalf("seed %d: goal-less run: reached=%v err=%v", seed, reachedNil, err)
		}
		for _, r := range p.Rules {
			// A constant outside the database's domain: never derivable.
			goal := ast.GroundAtom{Pred: r.Head.Pred, Args: make([]ast.Const, len(r.Head.Args))}
			for i := range goal.Args {
				goal.Args[i] = ast.Int(99)
			}
			got, reached, _, err := pr.RunMasked(context.Background(), in, &goal, 0, skip)
			if err != nil || reached {
				t.Fatalf("seed %d: goal %v: reached=%v err=%v", seed, goal, reached, err)
			}
			sameRun(t, got, full)
		}
	}
}
