// Package chase implements the paper's decision procedures built on the
// chase process:
//
//   - uniform containment of pure Datalog programs (Section VI): P₂ ⊑ᵘ P₁
//     iff for every rule h :- b of P₂, the frozen head h·θ belongs to
//     P₁(b·θ), where θ maps the rule's variables to distinct fresh
//     constants (Corollary 2). This test always terminates.
//   - the combined application [P, T] of a program and a set of tgds
//     (Section VIII), which underlies the relative test
//     SAT(T) ∩ M(P₁) ⊆ M(P₂). With embedded tgds the chase may not
//     terminate, so these procedures take a Budget and return a
//     three-valued Verdict, matching the paper's advice to "spend on
//     optimization a predetermined amount of time" (Section XI).
package chase

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
)

// Verdict is the outcome of a chase-based test that may be cut off by a
// resource budget.
type Verdict int

const (
	// Unknown means the test did not resolve: a budget was exhausted, or an
	// incomplete test (StratifiedUniformlyContains) found no proof.
	Unknown Verdict = iota
	// Yes means the property was proved.
	Yes
	// No means the property was refuted (a finite counterexample chase
	// reached its fixpoint without establishing the goal).
	No
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// Budget bounds a potentially diverging chase. The zero value means
// DefaultBudget.
type Budget struct {
	// MaxAtoms bounds the number of ground atoms (nulls included) in the
	// chase DB.
	MaxAtoms int
	// MaxRounds bounds the number of alternations between the Datalog
	// fixpoint and a tgd-application round.
	MaxRounds int
}

// DefaultBudget is generous enough for every example in the paper and every
// workload in the experiment suite.
var DefaultBudget = Budget{MaxAtoms: 100000, MaxRounds: 10000}

// OrDefault fills zero fields from DefaultBudget.
func (b Budget) OrDefault() Budget {
	if b.MaxAtoms == 0 {
		b.MaxAtoms = DefaultBudget.MaxAtoms
	}
	if b.MaxRounds == 0 {
		b.MaxRounds = DefaultBudget.MaxRounds
	}
	return b
}

// FreezeRule instantiates the variables of r to distinct frozen constants
// and returns the frozen head and the frozen body as a database — the
// canonical DB of Section VI. The constants are r.Freeze's (variables
// numbered in first-occurrence order, head first), but no binding map or
// ground atom is built on the way: every containment test freezes its
// candidate afresh, so the body goes straight from one buffer into the
// database.
func FreezeRule(r ast.Rule) (ast.GroundAtom, *db.Database) {
	n := len(r.Head.Args)
	for _, a := range r.Body {
		n += len(a.Args)
	}
	// names[i] freezes to consts[i]; buf holds the head's arguments, then
	// each body tuple in turn.
	names := make([]string, 0, n)
	consts := make([]ast.Const, 0, n)
	buf := make([]ast.Const, n)
	gen := ast.NewFrozenGen(0)
	freeze := func(a ast.Atom, args []ast.Const) []ast.Const {
		for j, t := range a.Args {
			if !t.IsVar {
				args[j] = t.Val
				continue
			}
			i := slices.Index(names, t.Name)
			if i < 0 {
				i = len(names)
				names = append(names, t.Name)
				consts = append(consts, gen.Fresh())
			}
			args[j] = consts[i]
		}
		return args[:len(a.Args)]
	}
	head := ast.GroundAtom{Pred: r.Head.Pred, Args: freeze(r.Head, buf)}
	d := db.New()
	off := len(head.Args)
	for _, a := range r.Body {
		d.AddTuple(a.Pred, freeze(a, buf[off:]))
		off += len(a.Args)
	}
	return head, d
}

// Checker is a containment session: one containing program, prepared once,
// serving many chase-based tests against it. It caches the prepared
// evaluation schedule, the goal cone of every head predicate it has been
// asked about, and — for the exact uniform-containment test — the per-rule
// verdicts, so the Fig. 1/2 minimization loops pay for program analysis once
// per phase instead of once per candidate. Each test freezes its own rule.
// Every test evaluates toward the frozen head as a goal and halts the moment
// it is derived, rather than saturating the full fixpoint (Corollary 2 only
// asks whether the head is derivable); the uniform-containment test also
// runs only the rules that can take part in a derivation of that head (see
// coneMask).
//
// Prepared plans come from the shared content-addressed plan cache.
// ContainsRuleMasked decides a rule against the session program with some of
// its rules switched off, on the same plan, so the Fig. 2 rule phase tests
// every candidate P − S − {r} in one session. Its verdict is stored under
// the subprogram's own content address: every verdict in the store was
// computed by a run on its own program.
//
// Every test that can run a chase takes the caller's context first: internal
// evaluations thread it to the emit path and every chase round checks it, so
// a deadline cuts a diverging chase promptly with an error wrapping
// eval.ErrCanceled. Cancellation never poisons shared state: verdicts and
// plans are only published for completed work, so the session — and the
// shared verdict store — stay valid for later calls under a live context.
//
// A Checker is not safe for concurrent use (its memo tables are unlocked).
type Checker struct {
	// Lineage is the cumulative stats, shared by value with any session
	// built in the same lineage.
	eval.Lineage
	prog *ast.Program
	// canon is the program's canonical form — the session's content address
	// into the plan and verdict caches — one newline-terminated line per
	// rule; rule i's line ends at ends[i], so a masked test addresses its
	// subprogram without re-rendering a rule.
	canon string
	ends  []int
	prep  *eval.Prepared
	// pv is the shared verdict table for this program content address,
	// resolved once so each test keys only by the rule's canonical form.
	pv *progVerdicts
	// ruleKey and progKey are the scratch buffers a test appends its rule's
	// key and, under a mask, its subprogram's key into.
	ruleKey, progKey []byte
	// cones memoizes, per head predicate, the mask of the rules outside its
	// goal cone (nil when every rule is inside); coneBuf is the scratch a
	// caller's mask is ORed into (coneMask).
	cones   map[string][]bool
	coneBuf []bool
	// graph is the program's dependence graph, built with the first cone.
	graph *depgraph.Graph
	// noSyntactic disables the θ-subsumption fast path, forcing each fresh
	// verdict through the chase (memoized verdicts are still reused).
	// noTermination disables the termination classifier: no derived budgets,
	// no full-set fixpoint collapse, every chase pays the raw round
	// alternation under the caller's (or default) budget. Both are the oracle
	// arms of this package's tests and ablation benchmark, which set them
	// directly; nothing outside the package can.
	noSyntactic, noTermination bool
	// termMemo caches the termination classification per tgd-set key (the
	// session program is fixed, so the key omits it); fullPreps caches the
	// combined prepared program chaseFull evaluates full tgd sets with.
	termMemo  map[string]depgraph.Classification
	fullPreps map[string]*eval.Prepared
	// tgdMemo caches LowerTGDs per tgd-set key.
	tgdMemo map[string]*TGDs
}

// NewChecker prepares p as the containing program of a session, reusing a
// cached plan for any canonically equal program seen before. Programs using
// negation are rejected: the chase-based tests are defined for pure Datalog
// (use StratifiedUniformlyContains for the encoded extension).
func NewChecker(p *ast.Program) (*Checker, error) {
	return NewCheckerIn(p, eval.NewLineage())
}

// NewCheckerIn is NewChecker inside an existing lineage: the session
// accumulates into the lineage's stats.
func NewCheckerIn(p *ast.Program, lin eval.Lineage) (*Checker, error) {
	if p.HasNegation() {
		return nil, fmt.Errorf("chase: uniform containment is defined for pure Datalog; program or rule uses negation")
	}
	c := &Checker{Lineage: lin, ends: make([]int, len(p.Rules))}
	buf := make([]byte, 0, 64*len(p.Rules))
	for i, r := range p.Rules {
		buf = append(r.AppendCanonical(buf), '\n')
		c.ends[i] = len(buf)
	}
	c.canon = string(buf)
	c.pv = defaultVerdicts.forProgram(buf)
	c.progKey = buf[:0]
	var built *eval.Prepared
	prep, err := c.Prepare(c.canon, func() (_ *eval.Prepared, err error) {
		built, err = eval.Prepare(p, eval.Options{})
		return built, err
	})
	if err != nil {
		return nil, err
	}
	c.prep = prep
	// Keep the caller's rules rather than whatever program the plan was
	// built from: a cache hit may return a plan for an alpha-renamed twin,
	// and ContainsRuleMasked's mask indexes the rules the caller names. When
	// the plan is the one built here, its program is already a private copy
	// of p.
	if prep == built {
		c.prog = prep.Program()
	} else {
		c.prog = p.Clone()
	}
	return c, nil
}

// Program returns the session's containing program. Callers must not
// mutate it.
func (c *Checker) Program() *ast.Program { return c.prog }

// coneMask is skip (nil or one entry per rule of Program()) with every rule
// outside the goal cone of pred switched off as well. The goal cone of a
// predicate (depgraph.Graph.Cone) is the rules whose head it depends on in
// the program's dependence graph, its own rules included: a derivation of a
// pred fact uses no other rule, so a goal run toward a pred atom reaches its
// goal under the wider mask exactly when it does under skip. The cone is computed over the whole
// program, so it holds the cone of every subprogram a mask selects. The
// result may be the session's scratch buffer, valid until the next call.
func (c *Checker) coneMask(pred string, skip []bool) []bool {
	out, ok := c.cones[pred]
	if !ok {
		if c.graph == nil {
			c.graph = depgraph.Build(c.prog)
		}
		out = c.graph.Cone(pred)
		for i := range out {
			out[i] = !out[i]
		}
		if !slices.Contains(out, true) {
			out = nil
		}
		if c.cones == nil {
			c.cones = make(map[string][]bool)
		}
		c.cones[pred] = out
	}
	switch {
	case out == nil:
		return skip
	case skip == nil:
		return out
	}
	c.coneBuf = append(c.coneBuf[:0], skip...)
	for i, off := range out {
		c.coneBuf[i] = c.coneBuf[i] || off
	}
	return c.coneBuf
}

// ContainsRule decides r ⊑ᵘ P for the session program P (Corollary 2),
// memoizing the verdict per rule in the program's content-addressed table —
// the verdict is semantic, invariant under variable renaming on both sides,
// so any session over a canonically equal program shares it.
func (c *Checker) ContainsRule(ctx context.Context, r ast.Rule) (bool, error) {
	return c.ContainsRuleMasked(ctx, r, nil)
}

// ContainsRuleMasked decides r ⊑ᵘ P − S, where S is the rules i of
// Program() with skip[i] set (skip is nil, masking nothing, or has one entry
// per rule). The chase is the session plan run with S — and every rule
// outside the goal cone of r's head predicate (coneMask) — switched off
// (eval.Prepared.RunMasked), and the verdict is looked up and stored under
// the canonical form of P − S, so it lands where a session opened over P − S
// would find it. The cone never enters the key: it changes which rules run,
// not the answer.
func (c *Checker) ContainsRuleMasked(ctx context.Context, r ast.Rule, skip []bool) (bool, error) {
	if err := eval.CtxErr(ctx); err != nil {
		return false, err
	}
	if r.HasNegation() {
		return false, fmt.Errorf("chase: uniform containment is defined for pure Datalog; program or rule uses negation")
	}
	pv := c.pv
	if skip != nil {
		if len(skip) != len(c.prog.Rules) {
			return false, fmt.Errorf("chase: mask of %d entries for %d rules", len(skip), len(c.prog.Rules))
		}
		c.progKey = c.progKey[:0]
		for i, end := range c.ends {
			if !skip[i] {
				start := 0
				if i > 0 {
					start = c.ends[i-1]
				}
				c.progKey = append(c.progKey, c.canon[start:end]...)
			}
		}
		pv = defaultVerdicts.forProgram(c.progKey)
	}
	c.ruleKey = r.AppendCanonical(c.ruleKey[:0])
	ckey := c.ruleKey
	if contained, hit := pv.get(ckey); hit {
		c.Tally().VerdictsReused++
		return contained, nil
	}
	if c.syntacticVerdict(r, skip) {
		c.Tally().VerdictsSubsumed++
		pv.put(ckey, true)
		return true, nil
	}
	head, body := FreezeRule(r)
	_, reached, est, err := c.prep.RunMasked(ctx, body, &head, 0, c.coneMask(r.Head.Pred, skip))
	c.Tally().Add(est)
	if err != nil {
		return false, err
	}
	c.Tally().VerdictsRecomputed++
	pv.put(ckey, reached)
	return reached, nil
}

// syntacticVerdict decides r ⊑ᵘ P − S (S masked by skip, as in
// ContainsRuleMasked) without a chase when the verdict is
// forced by the syntax alone — the move sticky-Datalog± optimizers make by
// classifying programs syntactically before running semantic tests. Two
// shapes force a positive verdict:
//
//   - r's head occurs among its own body atoms: the frozen head is in the
//     frozen body, and every program's output contains its input.
//   - some rule s of P θ-subsumes r: the frozen body of r contains
//     s.Body·θ frozen, so one application of s derives r's frozen head —
//     exactly Corollary 2's test, decided in the affirmative by a
//     single-step derivation.
//
// A miss means nothing: uniform containment is semantic, so the caller
// falls through to the chase.
func (c *Checker) syntacticVerdict(r ast.Rule, skip []bool) (forced bool) {
	if c.noSyntactic {
		return false
	}
	for _, a := range r.Body {
		if a.Equal(r.Head) {
			return true
		}
	}
	for i, s := range c.prog.Rules {
		if (skip == nil || !skip[i]) && ast.SubsumesRule(s, r) {
			return true
		}
	}
	return false
}

// Contains decides P₂ ⊑ᵘ P for the session program P, rule by rule, with
// the same witness convention as UniformlyContains.
func (c *Checker) Contains(ctx context.Context, p2 *ast.Program) (bool, int, error) {
	for i, r := range p2.Rules {
		ok, err := c.ContainsRule(ctx, r)
		if err != nil {
			return false, i, err
		}
		if !ok {
			return false, i, nil
		}
	}
	return true, -1, nil
}

// UniformlyContainsRule decides r ⊑ᵘ p for a single rule r: whether every
// model of p is a model of r (Corollary 2). The test is exact and always
// terminates; rules or programs using negation are rejected. It is the
// one-shot form of Checker.ContainsRule.
func UniformlyContainsRule(p *ast.Program, r ast.Rule) (bool, error) {
	if p.HasNegation() || r.HasNegation() {
		return false, fmt.Errorf("chase: uniform containment is defined for pure Datalog; program or rule uses negation")
	}
	c, err := NewChecker(p)
	if err != nil {
		return false, err
	}
	return c.ContainsRule(context.Background(), r)
}

// UniformlyContains decides P₂ ⊑ᵘ P₁ (p1 uniformly contains p2): for every
// input DB over both programs' predicates, P₂'s output is contained in
// P₁'s. By Proposition 2 this is M(P₁) ⊆ M(P₂), checked rule by rule. On
// failure the index of the first rule of p2 not uniformly contained in p1
// is returned as witness (-1 on success).
func UniformlyContains(p1, p2 *ast.Program) (bool, int, error) {
	if len(p2.Rules) == 0 {
		return true, -1, nil
	}
	c, err := NewChecker(p1)
	if err != nil {
		return false, 0, err
	}
	return c.Contains(context.Background(), p2)
}

// UniformlyEquivalent decides P₁ ≡ᵘ P₂.
func UniformlyEquivalent(p1, p2 *ast.Program) (bool, error) {
	ok, _, err := UniformlyContains(p1, p2)
	if err != nil || !ok {
		return false, err
	}
	ok, _, err = UniformlyContains(p2, p1)
	return ok, err
}

// Result carries the outcome of a combined [P, T] chase.
type Result struct {
	// DB is the chase database when the chase completed (fixpoint reached)
	// or the partial database when the budget ran out.
	DB *db.Database
	// Complete reports whether DB is a [P, T] fixpoint: closed under the
	// program's rules with every tgd satisfied. A goal-directed chase that
	// stops early still reports Complete truthfully — true exactly when the
	// partial database happens to be the fixpoint already.
	Complete bool
	// Rounds is the number of program/tgd alternations performed (1 for the
	// single-fixpoint fast path full tgd sets take).
	Rounds int
	// Class is the termination classification of the rule + tgd set the
	// chase ran under (depgraph.TermUnclassified when the analysis was
	// disabled). With Complete=false it tells budget exhaustion on a
	// provably-terminating set (impossible under the derived bound) apart
	// from a divergence-capable shape where the cutoff is load-bearing.
	Class depgraph.TerminationClass
}

// Apply computes [P, T](d): the closure of d under both the rules of p and
// the tgds of T (Section VIII), applying embedded tgds with fresh labeled
// nulls. The input database is not modified. When the budget runs out the
// partial database is returned with Complete=false.
func Apply(p *ast.Program, tgds []ast.TGD, d *db.Database, budget Budget) (Result, error) {
	c, err := NewChecker(p)
	if err != nil {
		return Result{}, err
	}
	return c.Apply(context.Background(), tgds, d, budget)
}

// Apply is the session form of the package-level Apply, reusing the
// prepared program across the chase's Datalog rounds.
func (c *Checker) Apply(ctx context.Context, tgds []ast.TGD, d *db.Database, budget Budget) (Result, error) {
	res, _, err := c.chaseToGoal(ctx, tgds, d, nil, budget)
	return res, err
}

// chaseToGoal runs the combined chase, optionally stopping early as soon as
// goal is derived. It returns the chase result plus the goal verdict: Yes if
// the goal was derived, No if the chase completed without deriving it,
// Unknown if the budget ran out first. With a nil goal the verdict is No on
// completion and Unknown otherwise. The session's prepared program serves
// every Datalog phase — one preparation for the whole chase, not one per
// round — and pushes the goal into the evaluator's emit path, so a round
// halts mid-join the moment the goal is derived.
func (c *Checker) chaseToGoal(ctx context.Context, tgds []ast.TGD, d *db.Database, goal *ast.GroundAtom, budget Budget) (Result, Verdict, error) {
	var cl depgraph.Classification
	if !c.noTermination {
		cl = c.Classify(tgds)
		if cl.Full {
			// Full tgds create no nulls, so [P, T](d) is the least fixpoint
			// of P ∪ rules(T) and the round alternation collapses into one
			// prepared evaluation.
			return c.chaseFull(ctx, tgds, d, goal, budget, cl)
		}
	}
	budget = c.resolveBudget(d, budget, cl)
	ts := c.lowered(tgds)
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
		added, err := ts.ApplyRound(ctx, cur, nullGen, c.Tally())
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

// termBudgetCap mirrors the saturation cap of depgraph.DerivedBudget when
// folding the input database size into a derived atom bound.
const termBudgetCap = 1 << 60

// resolveBudget picks the chase limits. A caller's explicit budget is
// always honored — exhaustion under it stays indistinguishable from
// divergence — but the zero Budget{} of a set classified chase-terminating
// is replaced by the provable bound DerivedBudget computes (plus the input
// database's own atoms), so the chase runs to true fixpoint and Unknown can
// no longer mean "budget too small". Each resolution is counted in the
// session stats as budget-free or budget-bounded.
func (c *Checker) resolveBudget(d *db.Database, budget Budget, cl depgraph.Classification) Budget {
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

// Classify returns the chase-termination classification of running the
// session program together with tgds (depgraph.ClassifyTGDs), memoized per
// tgd set — the minimization loops re-chase one tgd set against many
// candidate rules.
func (c *Checker) Classify(tgds []ast.TGD) depgraph.Classification {
	key := tgdSetKey(tgds)
	if cl, ok := c.termMemo[key]; ok {
		return cl
	}
	cl := depgraph.ClassifyTGDs(c.prog.Rules, tgds)
	if c.termMemo == nil {
		c.termMemo = make(map[string]depgraph.Classification)
	}
	c.termMemo[key] = cl
	return cl
}

// lowered returns tgds lowered onto the join kernel (LowerTGDs), memoized
// per tgd set like the classification: a [P, T] chase lowers T once, however
// many rounds and candidate rules it is run for.
func (c *Checker) lowered(tgds []ast.TGD) *TGDs {
	key := tgdSetKey(tgds)
	ts, ok := c.tgdMemo[key]
	if !ok {
		ts = LowerTGDs(tgds)
		if c.tgdMemo == nil {
			c.tgdMemo = make(map[string]*TGDs)
		}
		c.tgdMemo[key] = ts
	}
	return ts
}

func tgdSetKey(tgds []ast.TGD) string {
	var sb strings.Builder
	for _, t := range tgds {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// chaseFull runs the combined chase of a full tgd set as a single Datalog
// fixpoint over P ∪ rules(T), with the goal pushed into the evaluator's
// emit path. Full tgds have no existential variables, so no nulls are ever
// created and the fixpoint is exactly [P, T](d); closure under the combined
// program subsumes tgd satisfaction, so Complete needs no separate
// Satisfies sweep.
func (c *Checker) chaseFull(ctx context.Context, tgds []ast.TGD, d *db.Database, goal *ast.GroundAtom, budget Budget, cl depgraph.Classification) (Result, Verdict, error) {
	prep, err := c.fullPrep(tgds)
	if err != nil {
		return Result{}, Unknown, err
	}
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

// fullPrep returns the prepared combined program P ∪ rules(T) for a full
// tgd set, through the session's plan cache and memoized per tgd set.
func (c *Checker) fullPrep(tgds []ast.TGD) (*eval.Prepared, error) {
	key := tgdSetKey(tgds)
	if p, ok := c.fullPreps[key]; ok {
		return p, nil
	}
	combined := ast.NewProgram()
	combined.Rules = append(combined.Rules, c.prog.Rules...)
	canon := []byte(c.canon)
	for _, t := range tgds {
		for _, r := range t.AsRules() {
			combined.Rules = append(combined.Rules, r)
			canon = append(r.AppendCanonical(canon), '\n')
		}
	}
	prep, err := c.Prepare(string(canon), func() (*eval.Prepared, error) {
		return eval.Prepare(combined, eval.Options{})
	})
	if err != nil {
		return nil, err
	}
	if c.fullPreps == nil {
		c.fullPreps = make(map[string]*eval.Prepared)
	}
	c.fullPreps[key] = prep
	return prep, nil
}

// isFixpoint reports whether cur is already the [P, T] fixpoint: closed
// under the session program's rules and satisfying every tgd. A chase that
// found its goal stops with a partial database; this is what makes the
// reported Complete flag truthful rather than a blanket false.
func (c *Checker) isFixpoint(cur *db.Database, ts *TGDs) bool {
	return c.prep.IsClosed(cur) && ts.satisfies(cur, c.Tally())
}

func isBudgetErr(err error) bool { return errors.Is(err, eval.ErrBudget) }

// SATContainsRule decides SAT(T) ∩ M(P) ⊆ M(r) for the session program P
// and a single rule r by the extended chase of Section VIII: freeze r's
// body, close it under [P, T], and look for the frozen head. Yes and No
// answers are exact; Unknown means the budget ran out (possible only when T
// has embedded tgds). The verdict is not memoized — it depends on the
// budget. The chase runs every rule of P: a tgd can produce facts of any
// predicate, so no goal cone of P alone bounds it.
func (c *Checker) SATContainsRule(ctx context.Context, tgds []ast.TGD, r ast.Rule, budget Budget) (Verdict, error) {
	if r.HasNegation() {
		return Unknown, fmt.Errorf("chase: rule %s uses negation", r)
	}
	// M(P) ⊆ M(r) already forces SAT(T) ∩ M(P) ⊆ M(r) whatever T is, so a
	// syntactically forced uniform-containment verdict skips the [P, T]
	// chase too. The Section XI search probes many candidate programs that
	// differ from P in a single rule; every unchanged rule is subsumed by
	// itself, leaving only the changed rule for the chase.
	if c.syntacticVerdict(r, nil) {
		c.Tally().VerdictsSubsumed++
		return Yes, nil
	}
	head, d := FreezeRule(r)
	_, verdict, err := c.chaseToGoal(ctx, tgds, d, &head, budget)
	return verdict, err
}

// SATContainsRule is the one-shot form of Checker.SATContainsRule.
func SATContainsRule(p1 *ast.Program, tgds []ast.TGD, r ast.Rule, budget Budget) (Verdict, error) {
	if r.HasNegation() {
		return Unknown, fmt.Errorf("chase: rule %s uses negation", r)
	}
	c, err := NewChecker(p1)
	if err != nil {
		return Unknown, err
	}
	return c.SATContainsRule(context.Background(), tgds, r, budget)
}

// SATModelsContained decides SAT(T) ∩ M(P) ⊆ M(p2) for the session program
// P, rule by rule. A single refuted rule refutes the whole containment;
// otherwise any budget-limited rule makes the answer Unknown.
func (c *Checker) SATModelsContained(ctx context.Context, tgds []ast.TGD, p2 *ast.Program, budget Budget) (Verdict, error) {
	sawUnknown := false
	for _, r := range p2.Rules {
		v, err := c.SATContainsRule(ctx, tgds, r, budget)
		if err != nil {
			return Unknown, err
		}
		switch v {
		case No:
			return No, nil
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return Yes, nil
}

// SATModelsContained is the one-shot form of Checker.SATModelsContained.
func SATModelsContained(p1 *ast.Program, tgds []ast.TGD, p2 *ast.Program, budget Budget) (Verdict, error) {
	if len(p2.Rules) == 0 {
		return Yes, nil
	}
	c, err := NewChecker(p1)
	if err != nil {
		return Unknown, err
	}
	return c.SATModelsContained(context.Background(), tgds, p2, budget)
}

// Certificate is a checkable witness of a positive uniform-containment
// answer: the derivation of the frozen head of Rule from its frozen body
// using only rules of the containing program — exactly the evidence
// Corollary 2's test produces.
type Certificate struct {
	// Rule is the contained rule.
	Rule ast.Rule
	// Head is the frozen head that was derived.
	Head ast.GroundAtom
	// Body is the frozen body the derivation starts from.
	Body *db.Database
}

// StratifiedUniformlyContains extends the Section VI test P₂ ⊑ᵘ P₁ to
// programs with stratified negation, in the conservative style of the
// paper's announced extension (Section XII): negated literals are encoded as
// positive atoms over fresh extensional predicates (EncodeNegation, the
// encoding minimize.StratifiedProgram uses too), and the pure-Datalog test
// runs on the encoding. Yes is sound for stratified semantics — the
// witnessing derivation relies only on negation checks the contained rule's
// own firing already guarantees — but the test is incomplete: containments
// that need reasoning about negation (e.g. Q ∨ ¬Q case splits) are not
// found, so a failed encoded test is Unknown, never No. With Unknown comes
// the index of the first rule of p2 not shown contained (-1 with Yes).
func StratifiedUniformlyContains(p1, p2 *ast.Program) (Verdict, int, error) {
	c, err := NewChecker(EncodeNegation(p1))
	if err != nil {
		return Unknown, 0, err
	}
	ok, i, err := c.Contains(context.Background(), EncodeNegation(p2))
	if err != nil || !ok {
		return Unknown, i, err
	}
	return Yes, -1, nil
}

// NegPrefix marks the encoded positive stand-ins for negated literals. The
// '@' cannot appear in parsed predicate names, so encodings never collide
// with user predicates.
const NegPrefix = "neg@"

// EncodeRuleNegation rewrites every negated literal !Q(t̄) of r into a
// positive atom over the fresh extensional predicate neg@Q(t̄).
func EncodeRuleNegation(r ast.Rule) ast.Rule {
	enc := ast.Rule{Head: r.Head.Clone()}
	for _, a := range r.Body {
		enc.Body = append(enc.Body, a.Clone())
	}
	for _, a := range r.NegBody {
		n := a.Clone()
		n.Pred = NegPrefix + n.Pred
		enc.Body = append(enc.Body, n)
	}
	return enc
}

// EncodeNegation is EncodeRuleNegation over every rule of p.
func EncodeNegation(p *ast.Program) *ast.Program {
	out := ast.NewProgram()
	for _, r := range p.Rules {
		out.Rules = append(out.Rules, EncodeRuleNegation(r))
	}
	return out
}

// DecodeRuleNegation inverts EncodeRuleNegation; an encoded predicate in the
// head has no decoding.
func DecodeRuleNegation(r ast.Rule) (ast.Rule, error) {
	dec := ast.Rule{Head: r.Head.Clone()}
	for _, a := range r.Body {
		n := a.Clone()
		if strings.HasPrefix(a.Pred, NegPrefix) {
			n.Pred = strings.TrimPrefix(n.Pred, NegPrefix)
			dec.NegBody = append(dec.NegBody, n)
			continue
		}
		dec.Body = append(dec.Body, n)
	}
	if strings.HasPrefix(dec.Head.Pred, NegPrefix) {
		return ast.Rule{}, fmt.Errorf("chase: encoded predicate %s in head", dec.Head.Pred)
	}
	return dec, nil
}
