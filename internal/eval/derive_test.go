package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// TestPreparedDeriveStratified checks the strata-scheduled path of
// Prepared.Derive: deleting a rule from a program with negation must yield
// a plan that evaluates exactly like a fresh Prepare of the shortened
// program, compiling the surviving rules through the parent plan's memos.
func TestPreparedDeriveStratified(t *testing.T) {
	p := mustParseProgram(t, `
		Reach(x, y) :- Edge(x, y).
		Reach(x, z) :- Reach(x, y), Edge(y, z).
		Isolated(x) :- Node(x), !Touched(x).
		Touched(x) :- Edge(x, y).
		Touched(y) :- Edge(x, y).
	`)
	prep, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the recursive Reach rule (index 1).
	dp, err := prep.Derive(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Prepare(p.WithoutRule(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := parseFacts(t, `
		Node(0). Node(1). Node(2). Node(3).
		Edge(0, 1). Edge(1, 2).
	`)
	got, _, err := dp.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("derived plan output differs from fresh plan:\nderived:\n%s\nfresh:\n%s", got, want)
	}
	// Under negation Derive re-runs the stratification (nothing but tests
	// derives such a plan), but a rule's compile memo depends on the rule
	// alone: every surviving rule keeps its parent's.
	for i, m := range dp.memos {
		from := i
		if i >= 1 {
			from++ // rule 1 is gone
		}
		if m != prep.memos[from] {
			t.Errorf("rule %d of the derived stratified plan compiles through its own memo", i)
		}
	}
}

// TestPreparedDeriveReplacementStratified checks the replacement form on
// the strata path: weakening a rule's body yields the same model as a fresh
// plan for the replaced program.
func TestPreparedDeriveReplacementStratified(t *testing.T) {
	p := mustParseProgram(t, `
		Big(x) :- Node(x), Edge(x, x), !Small(x).
		Small(x) :- Low(x).
	`)
	prep, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nr := p.Rules[0].WithoutBodyAtom(1) // drop Edge(x, x)
	dp, err := prep.Derive(0, &nr)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Prepare(p.ReplaceRule(0, nr), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := parseFacts(t, `
		Node(0). Node(1).
		Edge(0, 0).
		Low(1).
	`)
	got, _, err := dp.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("derived replacement plan output differs:\nderived:\n%s\nfresh:\n%s", got, want)
	}
}

// TestPreparedDeriveChainPure walks a chain of deletions on a pure program,
// comparing each derived plan's full model against a fresh Prepare — the
// SCC-group path of Derive (no strata involved).
func TestPreparedDeriveChainPure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := workload.InjectRedundantRules(workload.TransitiveClosure(), 3, rng)
	if p.Validate() != nil {
		t.Fatal("workload generated an invalid program")
	}
	prep, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := p.Clone()
	d := parseFacts(t, `A(0, 1). A(1, 2). A(2, 3).`)
	for len(cur.Rules) > 1 {
		dp, err := prep.Derive(len(cur.Rules)-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur = cur.WithoutRule(len(cur.Rules) - 1)
		fresh, err := Prepare(cur, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := dp.Eval(d)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Eval(d)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("chain step at %d rules: derived output differs from fresh", len(cur.Rules))
		}
		prep = dp
	}
}

// TestDeriveLowersOnlyTheChangedRule: a lowered pipeline depends on one rule
// and one join order, so a plan derived by a one-rule delta runs every rule
// the delta did not touch on its parent's lowered plans — pointer-identical,
// no new memo entry — and only the replaced rule is lowered. That covers the
// delta-led entries too: every run here goes through delta rounds, whose led
// orders are planned from live sizes per fixpoint, and an untouched rule still
// finds each of them in the memo its parent filled. The deltas are the
// Fig. 1/2 ones, inside one recursive group; parent and children then run
// concurrently, sharing those memos (run under -race).
func TestDeriveLowersOnlyTheChangedRule(t *testing.T) {
	p := mustParseProgram(t, `
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z), A(x, w).
		G(x, z) :- G(x, y), G(y, z).
	`)
	input := workload.Chain("A", 6)
	parent, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := parent.Eval(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(parent.units) != 1 || len(parent.units[0].rules) != 3 {
		t.Fatalf("want one recursive group of three rules, have %d units", len(parent.units))
	}
	// What the parent's run lowered: each memo's entries, by pointer.
	snapshot := func() [][]*loweredRule {
		out := make([][]*loweredRule, len(parent.memos))
		for i, m := range parent.memos {
			m.mu.Lock()
			out[i] = slices.Clone(m.lowered)
			m.mu.Unlock()
			if len(out[i]) == 0 {
				t.Fatalf("the parent's run lowered nothing for rule %d", i)
			}
		}
		return out
	}
	before := snapshot()

	weak := p.Rules[1].WithoutBodyAtom(2) // drop the redundant A(x, w)
	weakened, err := parent.Derive(1, &weak)
	if err != nil {
		t.Fatal(err)
	}
	deleted, err := parent.Derive(2, nil) // drop the doubling rule
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		child  *Prepared
		fromOf []int // child rule → parent rule, -1 for the replaced one
	}{
		{"weakening", weakened, []int{0, -1, 2}},
		{"deletion", deleted, []int{0, 1}},
	} {
		got, st, err := c.child.Eval(input)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: the derived plan's output differs from its (equivalent) parent's", c.name)
		}
		if st.Rounds < 3 {
			t.Errorf("%s: %d rounds: the derived plan ran no delta round, so no led entry was asked for", c.name, st.Rounds)
		}
		for i, from := range c.fromOf {
			m := c.child.memos[i]
			if from < 0 {
				if m == parent.memos[i] || len(m.lowered) == 0 {
					t.Errorf("%s: the replaced rule %d was not lowered afresh", c.name, i)
				}
				continue
			}
			if m != parent.memos[from] {
				t.Errorf("%s: untouched rule %d compiles through its own memo", c.name, i)
			}
		}
		for i, entries := range snapshot() {
			if !slices.Equal(entries, before[i]) {
				t.Errorf("%s: running the derived plan re-lowered parent rule %d (%d entries, had %d)", c.name, i, len(entries), len(before[i]))
			}
		}
	}

	var wg sync.WaitGroup
	for _, pr := range []*Prepared{parent, weakened, deleted, parent, weakened, deleted} {
		wg.Add(1)
		go func(pr *Prepared) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				out, _, err := pr.Eval(workload.Chain("A", 3+i%5))
				if err != nil {
					t.Error(err)
					return
				}
				if ref, _, _ := Eval(pr.Program(), workload.Chain("A", 3+i%5), Options{}); !out.Equal(ref) {
					t.Errorf("concurrent run %d diverged from a fresh evaluation", i)
					return
				}
			}
		}(pr)
	}
	wg.Wait()
}

// randomLayeredProgram draws a pure program over intentional predicates
// P0..P3 and extensional A, B whose dependence graph has components of every
// shape — singletons, self-loops, cycles through several predicates, chains
// between them — so one-rule deltas split, shrink and dissolve groups.
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

// TestDeriveScheduleMatchesFresh: over random programs and random chains of
// Fig. 1/2 deltas, the schedule Derive patches — one group re-grouped, the
// rest carried over — has exactly the groups a fresh Prepare of the derived
// program computes (as sets of rule sets; independent groups may come in
// another order), in a producer-first order, and evaluates to the same
// model. Parent and child run concurrently: they share units and memos.
func TestDeriveScheduleMatchesFresh(t *testing.T) {
	groupSet := func(pr *Prepared) []string {
		var out []string
		for _, idxs := range pr.unitIdxs {
			g := slices.Clone(idxs)
			sort.Ints(g)
			out = append(out, fmt.Sprint(g))
		}
		sort.Strings(out)
		return out
	}
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
		pr, err := Prepare(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		input := workload.RandomDB(rng, q, 4, 6)
		for step := 0; step < 5 && len(q.Rules) > 0; step++ {
			i := rng.Intn(len(q.Rules))
			var nr *ast.Rule
			if r := q.Rules[i]; rng.Intn(2) == 0 && len(r.Body) > 1 {
				if cand := r.WithoutBodyAtom(rng.Intn(len(r.Body))); cand.WellFormed() {
					nr = &cand
				}
			}
			child, err := pr.Derive(i, nr)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if nr == nil {
				q = q.WithoutRule(i)
			} else {
				q = q.ReplaceRule(i, *nr)
			}
			fresh, err := Prepare(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := groupSet(child), groupSet(fresh); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: patched schedule %v, fresh schedule %v\n%s", seed, step, got, want, q)
			}
			// Producer-first: a group reads intentional predicates of its own
			// or an earlier group only.
			groupOf := map[string]int{}
			for ui, idxs := range child.unitIdxs {
				for _, ri := range idxs {
					groupOf[q.Rules[ri].Head.Pred] = ui
				}
			}
			for ui, idxs := range child.unitIdxs {
				for _, ri := range idxs {
					for _, a := range q.Rules[ri].Body {
						if g, idb := groupOf[a.Pred]; idb && g > ui {
							t.Fatalf("seed %d step %d: group %d reads %s, which group %d produces\n%s", seed, step, ui, a.Pred, g, q)
						}
					}
				}
			}
			var wg sync.WaitGroup
			var parentErr error
			wg.Add(1)
			go func(parent *Prepared) {
				defer wg.Done()
				_, _, _, parentErr = parent.Run(context.Background(), input, nil, 0)
			}(pr)
			got, _, err := child.Eval(input)
			wg.Wait()
			if err != nil || parentErr != nil {
				t.Fatalf("seed %d step %d: child %v, parent %v", seed, step, err, parentErr)
			}
			if want, _, _ := fresh.Eval(input); !got.Equal(want) {
				t.Fatalf("seed %d step %d: derived plan's model differs from a fresh plan's\n%s", seed, step, q)
			}
			pr = child
		}
	}
}

// TestDeriveReplacementValidatedAndRescheduled covers the replacements that
// are not weakenings. Only the new rule is validated, but against the whole
// program: what a fresh Prepare of the derived program rejects, Derive
// rejects. And a replacement that can add dependence edges — here it closes a
// cycle through two groups — re-runs the schedule instead of patching it.
func TestDeriveReplacementValidatedAndRescheduled(t *testing.T) {
	p := mustParseProgram(t, `
		P(x, y) :- A(x, y).
		Q(x, y) :- P(x, y), B(y, y).
	`)
	pr, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	atom := func(pred string, vars ...string) ast.Atom {
		a := ast.Atom{Pred: pred}
		for _, v := range vars {
			a.Args = append(a.Args, ast.Var(v))
		}
		return a
	}
	pxy, axy := atom("P", "x", "y"), atom("A", "x", "y")
	for _, nr := range []ast.Rule{
		{Head: pxy, Body: []ast.Atom{atom("A", "x", "z")}},                                           // not range-restricted
		{Head: pxy, Body: []ast.Atom{axy, atom("B", "x")}},                                           // B/1 against rule 1's B/2
		{Head: pxy, Body: []ast.Atom{axy, atom("A", "x")}},                                           // A/2 and A/1 inside the new rule
		{Head: atom("Q", "x"), Body: []ast.Atom{axy}},                                                // Q/1 against rule 1's head
		{Head: pxy, Body: []ast.Atom{axy}, NegBody: []ast.Atom{atom("A", "y", "x"), atom("A", "y")}}, // the clash under negation
	} {
		if _, err := pr.Derive(0, &nr); err == nil {
			t.Errorf("Derive accepted %s", nr)
		}
		if p.ReplaceRule(0, nr).Validate() == nil {
			t.Errorf("%s: the derived program is valid, the case tests nothing", nr)
		}
	}
	if _, err := pr.Derive(2, nil); err == nil {
		t.Error("Derive accepted an out-of-range rule index")
	}

	nr := mustParseProgram(t, `P(x, y) :- A(x, y), Q(y, x).`).Rules[0]
	child, err := pr.Derive(0, &nr)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.units) != 2 || len(child.units) != 1 || len(child.units[0].rules) != 2 {
		t.Fatalf("the replacement merges P and Q into one group: parent has %d units, child %d", len(pr.units), len(child.units))
	}
	if child.memos[1] != pr.memos[1] {
		t.Error("the untouched rule lost its memo to the re-schedule")
	}
	input := parseFacts(t, `A(1, 2). A(2, 1). B(1, 1). B(2, 2). Q(2, 1).`)
	got, _, err := child.Eval(input)
	if err != nil {
		t.Fatal(err)
	}
	if want := MustEval(p.ReplaceRule(0, nr), input); !got.Equal(want) {
		t.Errorf("re-scheduled plan's model differs from a fresh plan's:\n%s\nwant\n%s", got, want)
	}
}
