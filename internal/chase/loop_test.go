package chase

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
)

// The [P, T] chase as it ran before TGDs.Chase became its one loop: the
// embedded-set round alternation (chaseToGoal) and the full-set fixpoint
// (refChaseFull), with the budget rule and memo they ran under. They are
// kept here unchanged but for the names around them — refChecker's methods
// shadow the Checker's — as the reference the loop is held to: the same
// verdict, Complete flag, round count, class and database, null names
// included. Fig. 3's loop has its reference in internal/preserve.

type refTGDMemo struct {
	cl      *depgraph.Classification
	lowered *TGDs
	full    *eval.Prepared
}

type refChecker struct {
	*Checker
	tgdMemos map[string]*refTGDMemo
}

func (c *refChecker) chaseToGoal(ctx context.Context, tgds []ast.TGD, d *db.Database, goal *ast.GroundAtom, budget Budget) (Result, Verdict, error) {
	if c.neg {
		return Result{}, Unknown, ErrNegation
	}
	key := string(appendTGDSetKey(nil, tgds))
	m := c.tgdMemos[key]
	if m == nil {
		m = &refTGDMemo{}
		if c.tgdMemos == nil {
			c.tgdMemos = make(map[string]*refTGDMemo)
		}
		c.tgdMemos[key] = m
	}
	var cl depgraph.Classification
	if !c.noTermination {
		if m.cl == nil {
			m.cl = new(depgraph.Classification)
			*m.cl = depgraph.ClassifyTGDs(c.prog.Rules, tgds)
		}
		cl = *m.cl
		if cl.Full {
			// Full tgds create no nulls, so [P, T](d) is the least fixpoint
			// of P ∪ rules(T) and the round alternation collapses into one
			// prepared evaluation.
			return c.refChaseFull(ctx, tgds, m, d, goal, budget, cl)
		}
	}
	budget = c.resolveBudget(d, budget, cl)
	if m.lowered == nil {
		m.lowered = LowerTGDs(tgds)
	}
	ts := m.lowered
	cur := d.Clone()
	_, maxNull := cur.MaxGeneratedIndexes()
	nullGen := ast.NewNullGen(maxNull + 1)

	for round := 0; round < budget.MaxRounds; round++ {
		// Chase-round cancellation check, mirroring the evaluator's own
		// round-boundary discipline; both phases below also poll mid-round.
		if err := eval.CtxErr(ctx); err != nil {
			return Result{}, Unknown, err
		}
		// Datalog saturation phase, cut short if the goal shows up.
		remaining := budget.MaxAtoms - cur.Len()
		if remaining <= 0 {
			return Result{DB: cur, Complete: false, Rounds: round, Class: cl.Class}, Unknown, nil
		}
		out, reached, est, err := c.prep.Run(ctx, cur, goal, remaining)
		c.Tally().Add(est)
		if err != nil {
			if isBudgetErr(err) {
				return Result{DB: cur, Complete: false, Rounds: round, Class: cl.Class}, Unknown, nil
			}
			return Result{}, Unknown, err
		}
		cur = out
		if reached {
			return Result{DB: cur, Complete: c.isFixpoint(cur, ts), Rounds: round + 1, Class: cl.Class}, Yes, nil
		}

		// Tgd phase: fire every violated instantiation found against the
		// snapshot, re-checking before each firing (the restricted chase).
		added, err := ts.applyRound(ctx, cur, nullGen, c.Tally())
		c.Tally().Added += added
		if err != nil {
			return Result{}, Unknown, err
		}
		if goal != nil && cur.Has(*goal) {
			return Result{DB: cur, Complete: c.isFixpoint(cur, ts), Rounds: round + 1, Class: cl.Class}, Yes, nil
		}
		if added == 0 {
			return Result{DB: cur, Complete: true, Rounds: round + 1, Class: cl.Class}, No, nil
		}
		if cur.Len() > budget.MaxAtoms {
			return Result{DB: cur, Complete: false, Rounds: round + 1, Class: cl.Class}, Unknown, nil
		}
	}
	return Result{DB: cur, Complete: false, Rounds: budget.MaxRounds, Class: cl.Class}, Unknown, nil
}

func (c *refChecker) resolveBudget(d *db.Database, budget Budget, cl depgraph.Classification) Budget {
	if budget == (Budget{}) && cl.Class.ChaseTerminates() {
		atoms, rounds := cl.DerivedBudget(len(d.Consts()))
		if atoms > termBudgetCap-d.Len() {
			atoms = termBudgetCap
		} else {
			atoms += d.Len()
		}
		c.Tally().ChasesBudgetFree++
		return Budget{MaxAtoms: atoms, MaxRounds: rounds}
	}
	c.Tally().ChasesBudgetBounded++
	return budget.OrDefault()
}

func (c *refChecker) refChaseFull(ctx context.Context, tgds []ast.TGD, m *refTGDMemo, d *db.Database, goal *ast.GroundAtom, budget Budget, cl depgraph.Classification) (Result, Verdict, error) {
	if m.full == nil {
		prep, err := c.fullPrep(tgds)
		if err != nil {
			return Result{}, Unknown, err
		}
		m.full = prep
	}
	prep := m.full
	maxDerived := 0 // unbounded: a full set always terminates
	if budget != (Budget{}) {
		b := budget.OrDefault()
		maxDerived = b.MaxAtoms - d.Len()
		if maxDerived <= 0 {
			return Result{DB: d.Clone(), Complete: false, Rounds: 0, Class: cl.Class}, Unknown, nil
		}
		c.Tally().ChasesBudgetBounded++
	} else {
		c.Tally().ChasesBudgetFree++
	}
	out, reached, est, err := prep.Run(ctx, d, goal, maxDerived)
	c.Tally().Add(est)
	if err != nil {
		if isBudgetErr(err) {
			return Result{DB: d.Clone(), Complete: false, Rounds: 1, Class: cl.Class}, Unknown, nil
		}
		return Result{}, Unknown, err
	}
	if reached {
		return Result{DB: out, Complete: prep.IsClosed(out), Rounds: 1, Class: cl.Class}, Yes, nil
	}
	return Result{DB: out, Complete: true, Rounds: 1, Class: cl.Class}, No, nil
}

func (c *refChecker) fullPrep(tgds []ast.TGD) (*eval.Prepared, error) {
	combined := ast.NewProgram()
	combined.Rules = append(combined.Rules, c.prog.Rules...)
	canon := []byte(c.canon)
	for _, t := range tgds {
		for _, r := range t.AsRules() {
			combined.Rules = append(combined.Rules, r)
			canon = append(r.AppendCanonical(canon), '\n')
		}
	}
	return c.Prepare(string(canon), func() (*eval.Prepared, error) {
		return eval.Prepare(combined)
	})
}

func (c *refChecker) isFixpoint(cur *db.Database, ts *TGDs) bool {
	return c.prep.IsClosed(cur) && ts.satisfies(cur, c.Tally())
}

// chaseCase is one differential case: a program, a tgd set, a start
// database with an optional goal (a frozen rule body and its frozen head, or
// a small database with nulls and no goal), a budget and whether the
// termination classifier is off.
type chaseCase struct {
	prog   *ast.Program
	tgds   []ast.TGD
	d      *db.Database
	goal   *ast.GroundAtom
	budget Budget
	ablate bool
	kind   string // "full", "embedded" or "mixed"
}

// drawChaseCase builds a case from pick, which returns a number in [0, n):
// a seeded rand for the differential test, fuzzer bytes for FuzzChase. Every
// predicate is binary, so no draw contradicts an arity.
func drawChaseCase(pick func(n int) int) chaseCase {
	preds := []string{"A", "B", "C", "D"}
	vars := []string{"x", "y", "z", "w"}
	term := func(vars []string) ast.Term {
		if pick(8) == 0 {
			return ast.IntTerm(int64(pick(3)))
		}
		return ast.Var(vars[pick(len(vars))])
	}
	atoms := func(n int, vars []string) []ast.Atom {
		out := make([]ast.Atom, n)
		for i := range out {
			out[i] = ast.NewAtom(preds[pick(len(preds))], term(vars), term(vars))
		}
		return out
	}
	rule := func() ast.Rule {
		body := atoms(1+pick(3), vars)
		bv := ast.VarsOfAtoms(body)
		if len(bv) == 0 {
			bv = []string{"x"}
			body = append(body, ast.NewAtom("A", ast.Var("x"), ast.Var("x")))
		}
		return ast.Rule{Head: ast.NewAtom(preds[2+pick(2)], term(bv), term(bv)), Body: body}
	}
	var c chaseCase
	c.prog = ast.NewProgram()
	for n := pick(4); n > 0; n-- {
		c.prog.Rules = append(c.prog.Rules, rule())
	}
	full, embedded := false, false
	for n := 1 + pick(3); n > 0; n-- {
		t := ast.TGD{Lhs: atoms(1+pick(2), vars)}
		rhsVars := ast.VarsOfAtoms(t.Lhs)
		if pick(2) == 0 || len(rhsVars) == 0 {
			rhsVars = append(rhsVars, []string{"e1", "e2"}[:1+pick(2)]...)
		}
		t.Rhs = atoms(1+pick(2), rhsVars)
		if n := len(rhsVars); rhsVars[n-1] == "e1" || rhsVars[n-1] == "e2" {
			t.Rhs[0].Args[1] = ast.Var(rhsVars[n-1]) // an existential the rhs uses
		}
		if t.IsFull() {
			full = true
		} else {
			embedded = true
		}
		c.tgds = append(c.tgds, t)
	}
	c.kind = map[bool]string{true: "full", false: "embedded"}[full]
	if full && embedded {
		c.kind = "mixed"
	}
	if pick(2) == 0 {
		r := rule()
		if len(c.prog.Rules) > 0 && pick(2) == 0 { // a goal the program derives
			r = c.prog.Rules[pick(len(c.prog.Rules))].Clone()
			r.Body = append(r.Body, atoms(pick(2), vars)...)
		}
		head, body := FreezeRule(r)
		c.d, c.goal = body, &head
	} else {
		c.d = db.New()
		for n := 2 + pick(13); n > 0; n-- {
			arg := func() ast.Const {
				if pick(6) == 0 {
					return ast.NullConst(pick(3))
				}
				return ast.Int(int64(pick(5)))
			}
			c.d.Add(ast.NewGroundAtom(preds[pick(2)], arg(), arg()))
		}
	}
	c.ablate = pick(4) == 0
	c.budget = Budget{MaxAtoms: 8 + pick(1+pick(249)), MaxRounds: 8 + pick(1+pick(249))}
	// The zero budget only where the classifier derives a bound from it: a
	// divergent set would otherwise run to DefaultBudget's 100,000 atoms.
	if !c.ablate && pick(4) == 0 && depgraph.ClassifyTGDs(c.prog.Rules, c.tgds).Class.ChaseTerminates() {
		c.budget = Budget{}
	}
	return c
}

// diffChase runs c through the Checker and the reference and reports the
// first difference: error, verdict, Complete, Rounds, Class, database (null
// names included), the caller's database left as it was, and the work
// counters (not the budget counters: a full set's explicit budget too small
// for its input now counts as bounded; nor the plan-cache ones, which depend
// on which of the two checkers prepared a program first).
func diffChase(c chaseCase) (string, Verdict, error) {
	got, err := NewChecker(c.prog)
	if err != nil {
		return "", Unknown, err
	}
	base, err := NewChecker(c.prog)
	if err != nil {
		return "", Unknown, err
	}
	ref := &refChecker{Checker: base}
	got.noTermination, ref.noTermination = c.ablate, c.ablate
	before := c.d.String()
	gr, gv, gerr := got.chaseToGoal(context.Background(), c.tgds, c.d, c.goal, c.budget)
	rr, rv, rerr := ref.chaseToGoal(context.Background(), c.tgds, c.d, c.goal, c.budget)
	switch {
	case fmt.Sprint(gerr) != fmt.Sprint(rerr):
		return fmt.Sprintf("error %v, reference %v", gerr, rerr), gv, nil
	case gv != rv || gr.Complete != rr.Complete || gr.Rounds != rr.Rounds || gr.Class != rr.Class:
		return fmt.Sprintf("verdict %v complete %v rounds %d class %v, reference %v %v %d %v", gv, gr.Complete, gr.Rounds, gr.Class, rv, rr.Complete, rr.Rounds, rr.Class), gv, nil
	case fmt.Sprint(gr.DB) != fmt.Sprint(rr.DB):
		return fmt.Sprintf("database\n%v\nreference\n%v", gr.DB, rr.DB), gv, nil
	case c.d.String() != before:
		return "the caller's database changed", gv, nil
	}
	gs, rs := got.Stats(), ref.Stats()
	gs.ChaseStats, rs.ChaseStats = eval.ChaseStats{}, eval.ChaseStats{}
	gs.ReuseStats, rs.ReuseStats = eval.ReuseStats{}, eval.ReuseStats{}
	if gs != rs {
		return fmt.Sprintf("stats %+v, reference %+v", gs, rs), gv, nil
	}
	return "", gv, nil
}

func (c chaseCase) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s set, budget %+v, ablated %v, goal %v\nprogram:\n%v\ntgds:\n", c.kind, c.budget, c.ablate, c.goal, c.prog)
	for _, t := range c.tgds {
		fmt.Fprintf(&sb, "  %v\n", t)
	}
	fmt.Fprintf(&sb, "start:\n%v", c.d)
	return sb.String()
}

// TestChaseLoopMatchesReference holds TGDs.Chase, through chaseToGoal, to the
// reference loops on 2,000 random cases of every set kind, budget-bounded and
// budget-free, with and without the termination classifier; the tally makes
// sure each kind and verdict is sampled.
func TestChaseLoopMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 2000; seed++ {
		c := drawChaseCase(rand.New(rand.NewSource(seed)).Intn)
		diff, v, err := diffChase(c)
		if err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, c)
		}
		if diff != "" {
			t.Fatalf("seed %d: %s\n%v", seed, diff, c)
		}
		seen[c.kind]++
		seen[v.String()]++
		seen[c.kind+"/"+v.String()]++
	}
	for _, k := range []string{"full", "embedded", "mixed", "yes", "no", "unknown", "full/yes", "full/unknown", "embedded/yes", "embedded/unknown", "mixed/yes", "mixed/unknown"} {
		if seen[k] < 20 {
			t.Errorf("%q drawn %d times, want ≥ 20: %v", k, seen[k], seen)
		}
	}
}

// TestChaseAddedIsGrowth: on every generated case, Stats.Added counts
// exactly the facts the chase added to its start database — the phases'
// derivations and the tgd rounds' inventions alike — but for a phase the
// budget cut: the room+1 facts it derived before the cut count too, though
// the chase goes back to the database the phase started from.
func TestChaseAddedIsGrowth(t *testing.T) {
	for seed := int64(1); seed <= 2000; seed++ {
		c := drawChaseCase(rand.New(rand.NewSource(seed)).Intn)
		ck, err := NewChecker(c.prog)
		if err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, c)
		}
		ck.noTermination = c.ablate
		res, v, err := ck.chaseToGoal(context.Background(), c.tgds, c.d, c.goal, c.budget)
		if err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, c)
		}
		added, grew := ck.Stats().Added, res.DB.Len()-c.d.Len()
		cut := v == Unknown && c.budget.MaxAtoms > 0 && added == grew+c.budget.MaxAtoms-res.DB.Len()+1
		if added != grew && !cut {
			t.Fatalf("seed %d: verdict %v, Added %d, the database grew by %d\n%v", seed, v, added, grew, c)
		}
	}
}

// FuzzChase is the differential of TestChaseLoopMatchesReference with the
// case drawn from the fuzzer's bytes.
func FuzzChase(f *testing.F) {
	for _, seed := range []string{"", "\x01\x02\x03\x04\x05\x06\x07\x08", "\x03\x01\x00\x02\x01\x01\x00\x01\x00\x01\x02\x00\x01\x01\x01\x04"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		c := drawChaseCase(func(n int) int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1]) % n
		})
		diff, _, err := diffChase(c)
		if err != nil {
			t.Skip(err) // a draw the checker refuses, such as a rule it cannot prepare
		}
		if diff != "" {
			t.Fatalf("%s\n%v", diff, c)
		}
	})
}
