package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
)

// The prepared layer caches everything about a program that does not depend
// on the input database: validation, the SCC schedule, and — per rule
// and per join order actually encountered — the lowered pipeline and the
// index column sets its probes need. Every decision procedure in the paper
// (the frozen-body containment test of Section VI, the Fig. 1/2 minimization
// loops, the Section X–XI pipeline) evaluates the same program, or the same
// program with some rules switched off (RunMasked), against many small
// databases; preparing once amortizes the per-call analysis they all used to
// repeat.

// errGoal is the internal sentinel a fixpoint returns when Run's goal was
// derived; Prepared.Run converts it into a successful early return.
var errGoal = errors.New("eval: goal reached")

// Prepared is a program analyzed and compiled for repeated evaluation:
// Prepare once, then Eval against many input databases. The schedule
// (strongly connected components) is computed at Prepare time; the
// lowered form of each rule is memoized per join order (ruleMemo), so
// steady-state rounds and repeat evaluations skip recompilation entirely. A
// Prepared is safe for concurrent use.
type Prepared struct {
	prog *ast.Program
	// memos[i] compiles prog.Rules[i]; a masked run lowers through the same
	// memos, so every subprogram a mask selects shares the plan's lowerings.
	memos []*ruleMemo
	units []*unit
	// arities is every predicate of prog with the arity its atoms use, in
	// first-occurrence order: what Run checks an input's relations against.
	arities []predArity
	// sizes records, per head predicate, the tuples its relation ended
	// with in the plan's last completed run with no goal and no mask — what
	// the next such run reserves for it (Run).
	sizes []outSize

	// One-step application of the whole program: each rule in its static
	// join order, built on first use by NonRecursive / IsClosed.
	nonrecOnce sync.Once
	nonrec     []*loweredRule
}

// ruleMemo is the compile memo of one rule: its lowered pipeline per join
// order encountered. A lowering depends on the rule and the order and on
// nothing else — not on the sibling rules of its unit, not on the program —
// which is what lets every masked run of the plan share one memo. Entries
// are immutable once built; the list only grows, by at most two entries per
// permutation of the body.
type ruleMemo struct {
	rule ast.Rule

	mu      sync.Mutex
	lowered []*loweredRule
}

// loweredRule is one rule under one join order: perm[j] is the body index of
// the atom evaluated j-th. The index column sets a round must freeze are read
// off the plan's probe operators (streamPlan.ensureIndexes), so the plan is
// the whole of it. scan0 marks the entry a delta variant needs when the lead
// atom holds a constant: operator 0 lowered as a scan all the same.
type loweredRule struct {
	perm  []int
	scan0 bool
	plan  *streamPlan
}

// outSize is one head predicate's entry in a plan's size record. Runs of
// one plan on any number of goroutines read and write it, hence the atomic.
type outSize struct {
	pred string
	n    atomic.Int64
}

// predArity is one predicate of a program and the arity its atoms use.
type predArity struct {
	pred  string
	arity int
}

func newMemos(rules []ast.Rule) []*ruleMemo {
	memos := make([]*ruleMemo, len(rules))
	for i, r := range rules {
		memos[i] = &ruleMemo{rule: r}
	}
	return memos
}

// under returns the rule lowered for the join order perm, lowering it on the
// order's first use; led asks for the form a delta variant runs, whose
// operator 0 walks the delta's id-range (the same entry unless the lead atom
// holds a constant). The reordered rule shares its atoms with m.rule: rules
// are immutable once a plan holds them.
func (m *ruleMemo) under(perm []int, led bool) *loweredRule {
	scan0 := led && slices.ContainsFunc(m.rule.Body[perm[0]].Args, func(t ast.Term) bool { return !t.IsVar })
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, lr := range m.lowered {
		if lr.scan0 == scan0 && slices.Equal(lr.perm, perm) {
			return lr
		}
	}
	or := ast.Rule{Head: m.rule.Head, Body: make([]ast.Atom, len(perm)), NegBody: m.rule.NegBody}
	for j, pi := range perm {
		or.Body[j] = m.rule.Body[pi]
	}
	lr := &loweredRule{perm: perm, scan0: scan0, plan: lowerRule(or, nil, 0, scan0)}
	m.lowered = append(m.lowered, lr)
	return lr
}

// static is the rule under the greedy join order with no cardinalities to
// consult: what one-shot passes use, since their databases are either tiny or
// already closed.
func (m *ruleMemo) static() *loweredRule {
	return m.under(orderPermSized(m.rule.Body, -1, nil), false)
}

// orderPermSized is the planner's join order: a permutation of atom indexes
// (out[j] = source index of the atom evaluated j-th) that starts with atom
// lead when lead ≥ 0 — the one "atom i leads" order the delta variants of a
// fixpoint, of an insert loop and of view maintenance all run — and is
// otherwise chosen greedily so that each next atom has as many columns bound
// — by a constant or a variable of the prefix — as possible; among equals the
// atom over the smaller relation goes first when sizeOf is given, and source
// order breaks the remaining ties. A heuristic, not an optimizer. The
// permutation doubles as the memo key: rounds whose live cardinalities induce
// the same order share one lowered rule (ruleMemo.under).
func orderPermSized(atoms []ast.Atom, lead int, sizeOf func(pred string) int) []int {
	n := len(atoms)
	if n <= 1 {
		return make([]int, n) // nothing to order
	}
	out := make([]int, 0, n)
	used := make([]bool, n)
	boundVars := make(map[string]bool)
	if lead >= 0 {
		used[lead] = true
		out = append(out, lead)
		atoms[lead].CollectVars(boundVars)
	}
	for len(out) < n {
		best, bestScore, bestSize := -1, -1, 0
		for i, a := range atoms {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if !t.IsVar || boundVars[t.Name] {
					score += 2
				}
			}
			size := 0
			if sizeOf != nil {
				size = sizeOf(a.Pred)
			}
			// Strict > / < keep the earliest best.
			if score > bestScore || (score == bestScore && sizeOf != nil && size < bestSize) {
				best, bestScore, bestSize = i, score, size
			}
		}
		used[best] = true
		out = append(out, best)
		atoms[best].CollectVars(boundVars)
	}
	return out
}

// unit is one fixpoint of the evaluation schedule: the rules of one strongly
// connected component of the dependence graph, with the dynamic predicates
// its delta machinery tracks. A unit is immutable apart from its two lazily
// built plans.
type unit struct {
	rules []*ruleMemo
	// idxs[j] is the program rule index of rules[j]: what a mask is keyed
	// by and what the proof read-back (readback.go) reports a firing as.
	idxs    []int
	dynamic map[string]bool
	// streamable marks a unit none of whose rules read the unit's own head
	// predicates (positively or under negation): its semi-naive fixpoint is
	// one full application, with no delta rounds and no confirmation round.
	streamable bool

	// maint is the unit's view-maintenance plan (see unit.maintPlan).
	maintOnce sync.Once
	maint     *maintPlan
}

// Prepare validates p and builds its evaluation schedule: one unit per producer-first SCC group (Graph.RuleGroups),
// negation or not — a stratifiable program has no negative edge inside a
// component, so every predicate a unit negates is complete before the unit
// runs. The program is cloned, so later mutation of p (the minimization
// loops rewrite rules in place) cannot corrupt the prepared state.
func Prepare(p *ast.Program) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prog := p.Clone()
	groups, err := depgraph.Build(prog).RuleGroups()
	if err != nil {
		return nil, err
	}
	pr := &Prepared{prog: prog, memos: newMemos(prog.Rules), arities: arityTable(prog)}
	for _, group := range groups {
		pr.units = append(pr.units, newUnit(pr.memos, group))
	}
	heads := prog.IDBPredicates()
	pr.sizes = make([]outSize, len(heads))
	k := 0
	for _, pa := range pr.arities { // first-occurrence order, not the map's
		if heads[pa.pred] {
			pr.sizes[k].pred = pa.pred
			k++
		}
	}
	return pr, nil
}

// arityTable lists p's predicates with their arities, in first-occurrence
// order; p is valid, so every atom of a predicate has the one arity.
func arityTable(p *ast.Program) []predArity {
	var out []predArity
	seen := make(map[string]bool)
	for _, r := range p.Rules {
		for _, atoms := range r.Atoms() {
			for _, a := range atoms {
				if !seen[a.Pred] {
					seen[a.Pred] = true
					out = append(out, predArity{a.Pred, len(a.Args)})
				}
			}
		}
	}
	return out
}

// newUnit builds the fixpoint unit for one schedule group, memos being the
// program's. The unit's dynamic set is the head predicates of its own rules,
// the component's predicates that have rules.
func newUnit(memos []*ruleMemo, group []int) *unit {
	u := &unit{rules: make([]*ruleMemo, len(group)), idxs: group, dynamic: make(map[string]bool), streamable: true}
	for j, ri := range group {
		u.rules[j] = memos[ri]
		u.dynamic[memos[ri].rule.Head.Pred] = true
	}
	for _, m := range u.rules {
		for _, a := range m.rule.Body {
			if u.dynamic[a.Pred] {
				u.streamable = false
			}
		}
		for _, a := range m.rule.NegBody {
			if u.dynamic[a.Pred] {
				u.streamable = false
			}
		}
	}
	return u
}

// Program returns the prepared program (the clone taken at Prepare time).
// Callers must not mutate it.
func (pr *Prepared) Program() *ast.Program { return pr.prog }

// Eval computes P(input) exactly like the package-level Eval, reusing the
// prepared schedule and compile caches. It is Run with no cancellation,
// goal or budget.
func (pr *Prepared) Eval(input *db.Database) (*db.Database, Stats, error) {
	out, _, stats, err := pr.Run(context.Background(), input, nil, 0)
	return out, stats, err
}

// Run evaluates the whole program: it is RunMasked with no mask, the one
// evaluation entry point every per-call concern goes through. Each argument
// after ctx may be its zero value. An input relation
// whose arity contradicts the program's use of its predicate is rejected
// with an error wrapping ErrArity before anything is evaluated.
//
//   - ctx cancels the evaluation: cancellation or deadline expiry aborts
//     with an error wrapping ErrCanceled, checked at round boundaries and on
//     the emit path. The context belongs to the call, not the plan, so one
//     Prepared concurrently serves requests with independent deadlines.
//   - goal halts evaluation the moment that atom is derived and is reported
//     by the boolean — what makes the frozen-body containment test of
//     Section VI cheap: the test only asks whether the frozen head is
//     derivable, never for the full fixpoint. A nil goal saturates fully
//     and reports false.
//   - maxDerived bounds the new facts (0 = unlimited), returning an error
//     wrapping ErrBudget. Pure Datalog always terminates, so the bound exists
//     for callers that embed evaluation in potentially non-terminating
//     chases.
func (pr *Prepared) Run(ctx context.Context, input *db.Database, goal *ast.GroundAtom, maxDerived int) (*db.Database, bool, Stats, error) {
	return pr.RunMasked(ctx, input, goal, maxDerived, nil)
}

// RunMasked is Run over the program Program() − S, where S is the rules i
// with skip[i] set (skip is nil, masking nothing, or has one entry per rule
// of Program()). The plan's schedule serves every such subprogram, because
// deleting rules only removes dependence edges: components can split but
// never merge, so each unit of the schedule holds whole components of the
// subprogram, and everything a unit reads from outside itself is still
// produced by earlier units. One semi-naive fixpoint over several components
// reaches their least fixpoint all the same, and a predicate a unit negates
// is still complete before the unit runs. A masked rule contributes no
// variant to any round; the others run through the plan's own compile memos.
// This is how the Fig. 2 rule phase tests r ⊑ᵘ P − S − {r} against one
// prepared P.
func (pr *Prepared) RunMasked(ctx context.Context, input *db.Database, goal *ast.GroundAtom, maxDerived int, skip []bool) (*db.Database, bool, Stats, error) {
	var stats Stats
	if err := CtxErr(ctx); err != nil {
		return nil, false, stats, err
	}
	if skip != nil && len(skip) != len(pr.prog.Rules) {
		return nil, false, stats, fmt.Errorf("eval: mask of %d entries for %d rules", len(skip), len(pr.prog.Rules))
	}
	if err := pr.checkInput(input); err != nil {
		return nil, false, stats, err
	}
	if goal != nil {
		if err := pr.CheckAtom(input, goal.Pred, len(goal.Args)); err != nil {
			return nil, false, stats, err
		}
	}
	d := input.Clone()
	if goal != nil && d.Has(*goal) {
		return d, true, stats, nil
	}
	// A run with no goal and no mask computes the whole of P(input), as the
	// plan's last such run did on an input that is, in the traffic that
	// repeats a plan, about the same size: its head relations start at the
	// sizes that run recorded.
	sized := goal == nil && skip == nil
	if sized {
		pr.reserve(d, maxDerived)
	}
	env := &roundEnv{
		ctx: ctx, d: d, stats: &stats,
		baseLen: input.Len(), maxDerived: maxDerived, goal: goal, skip: skip,
	}
	for _, u := range pr.units {
		if err := u.fixpoint(env); err != nil {
			if errors.Is(err, errGoal) {
				return d, true, stats, nil
			}
			return nil, false, stats, err
		}
	}
	if sized {
		pr.record(d)
	}
	return d, false, stats, nil
}

// reserve sizes, in d, each head relation d does not hold yet for the
// tuples the plan's size record has for it, at most maxDerived when that
// is set: the relation is created at that size by its first insert
// (db.Database.Reserve).
func (pr *Prepared) reserve(d *db.Database, maxDerived int) {
	for i := range pr.sizes {
		s := &pr.sizes[i]
		n := int(s.n.Load())
		if n == 0 || d.Relation(s.pred) != nil {
			continue
		}
		if maxDerived > 0 {
			n = min(n, maxDerived)
		}
		d.Reserve(s.pred, n)
	}
}

// record stores, in the plan's size record, the tuples each head relation
// of a completed run ended with, and withdraws the run's reservations: a
// relation that ended below its reservation, or grew past it, gives the
// slack back.
func (pr *Prepared) record(d *db.Database) {
	for i := range pr.sizes {
		s := &pr.sizes[i]
		n := 0
		if rel := d.Relation(s.pred); rel != nil {
			n = rel.Len()
		}
		d.Reserve(s.pred, 0)
		s.n.Store(int64(n))
	}
}

// checkInput rejects an input relation whose arity contradicts an atom of the
// program: the store panics on the first tuple a rule derives into it. The
// walk is over the arity table Prepare built, not the input's facts.
func (pr *Prepared) checkInput(input *db.Database) error {
	for _, pa := range pr.arities {
		if rel := input.Relation(pa.pred); rel != nil && rel.Arity() != pa.arity {
			return fmt.Errorf("%w: input relation %s has arity %d, the program uses %s/%d", ErrArity, pa.pred, rel.Arity(), pa.pred, pa.arity)
		}
	}
	return nil
}

// CheckAtom is where a query or goal atom meets the plan: it rejects pred at
// arity, before anything is evaluated, with an error wrapping ErrArity when
// the program or input uses pred at another arity. A predicate neither knows
// passes — its answer is empty.
func (pr *Prepared) CheckAtom(input *db.Database, pred string, arity int) error {
	for _, pa := range pr.arities {
		if pa.pred == pred && pa.arity != arity {
			return fmt.Errorf("%w: %s/%d, the program uses %s/%d", ErrArity, pred, arity, pred, pa.arity)
		}
	}
	if rel := input.Relation(pred); rel != nil && rel.Arity() != arity {
		return fmt.Errorf("%w: %s/%d, input relation %s has arity %d", ErrArity, pred, arity, pred, rel.Arity())
	}
	return nil
}

// Query evaluates the prepared program on input and returns the tuples
// matching the query atom, like the package-level Query. A query whose arity
// contradicts the program or the input is rejected first (CheckAtom).
func (pr *Prepared) Query(input *db.Database, query ast.Atom) ([][]ast.Const, error) {
	if err := pr.CheckAtom(input, query.Pred, len(query.Args)); err != nil {
		return nil, err
	}
	out, _, err := pr.Eval(input)
	if err != nil {
		return nil, err
	}
	return db.Select(out, query), nil
}

// onePass applies every rule of the program once to d — no derivation feeds
// back, so each rule is one full-span pipeline run whatever recursion the
// program has — in the static join order (no live cardinalities exist for a
// one-shot pass), routing head instantiations to sink until it halts. d
// gains the hash indexes the joins probe but no facts. The returned stats
// are the pass's own.
func (pr *Prepared) onePass(d *db.Database, sink streamSink) Stats {
	pr.nonrecOnce.Do(func() {
		for _, m := range pr.memos {
			pr.nonrec = append(pr.nonrec, m.static())
		}
	})
	for _, lr := range pr.nonrec {
		lr.plan.ensureIndexes(d)
	}
	st := getStreamState()
	defer putStreamState(st)
	var stats Stats
	for _, lr := range pr.nonrec { // a full span: every firing valid in d reaches sink once
		if !lr.plan.run(d, fullSpan(d.Round()), st, &stats, sink) {
			break
		}
	}
	return stats
}

// NonRecursive computes Pⁿ(d) as defined in Section IX: the set of head
// instantiations h·θ such that the body of some rule grounds into d. The
// result does not include d itself (the paper's convention for Pⁿ), and no
// derived fact feeds back into another derivation. Negated body atoms (the
// stratified extension) are checked against d.
func (pr *Prepared) NonRecursive(d *db.Database) *db.Database {
	out := db.New()
	pr.onePass(d, &nonrecSink{out: out})
	return out
}

// IsClosed reports whether d is a model of the prepared program
// (Section IV): no rule application derives an atom outside d. The pass
// aborts at the first counterexample.
func (pr *Prepared) IsClosed(d *db.Database) bool {
	sink := closedSink{d: d}
	pr.onePass(d, &sink)
	return !sink.open
}

// liveSizes is the planner's cardinality source: a predicate's live tuple
// count in d, doubled so that a led order can break a tie between equally
// sized relations towards the one the unit does not write — it stays that
// size while the other grows round by round.
func (u *unit) liveSizes(d *db.Database, led bool) func(pred string) int {
	return func(pred string) int {
		n := 0
		if rel := d.Relation(pred); rel != nil {
			n = 2 * rel.Live()
		}
		if led && u.dynamic[pred] {
			n++
		}
		return n
	}
}

// firstVariants appends a unit's first round: each rule once over everything
// visible, under the greedy join order the current relation sizes induce, read
// through the rule's memo — so a rule is lowered once per distinct order it
// ever meets, whichever plan of the lineage runs it. A rule that cannot fire
// (canFire) gets no variant: its application would derive nothing, so it is
// neither planned nor lowered nor indexed. If the empty atom is over one of
// the unit's heads, a later round's delta leads the rule all the same
// (deltaVariants).
func (env *roundEnv) firstVariants(u *unit, prev int32, variants []variant) []variant {
	sizeOf := u.liveSizes(env.d, false)
	for idx, m := range u.rules {
		if env.masked(u, idx) || !canFire(env.d, m.rule) {
			continue
		}
		lr := m.under(orderPermSized(m.rule.Body, -1, sizeOf), false)
		variants = append(variants, variant{lr.plan, fullSpan(prev)})
	}
	return variants
}

// canFire reports whether every positive body atom of r reads a relation of
// d holding a live tuple: without one, no instantiation of r's body exists.
func canFire(d *db.Database, r ast.Rule) bool {
	for _, a := range r.Body {
		if rel := d.Relation(a.Pred); rel == nil || rel.Live() == 0 {
			return false
		}
	}
	return true
}

// deltaVariants appends a delta round's variants: for each rule of u and each
// body atom whose delta — the rounds [min, max] of its relation — holds a
// tuple, the rule led by that atom (span.led): position 0 walks the delta's
// id-range and every other position is a probe or lookup from round 0, so the
// round costs O(|Δ| · fan-out) whatever the relations' sizes. A fixpoint
// tracks the atoms over the unit's own heads; an insert loop (all) every atom,
// since an insertion may be extensional. The order behind a lead is chosen
// once per fixpoint, from the live sizes at the first round that needs it
// (env.led), and lowered through the rule's memo: an atom whose delta stays
// empty costs neither, and neither does a rule that cannot fire (canFire) —
// the delta of its lead holds tuples, but another of its atoms reads an empty
// relation.
func (env *roundEnv) deltaVariants(u *unit, all bool, min, max int32, variants []variant) []variant {
	d := env.d
	if env.led == nil {
		n := 0
		for _, m := range u.rules {
			n += len(m.rule.Body)
		}
		env.led = make([]*loweredRule, n)
	}
	off := 0
	for idx, m := range u.rules {
		if env.masked(u, idx) || !canFire(d, m.rule) {
			off += len(m.rule.Body)
			continue
		}
		for i, a := range m.rule.Body {
			if !all && !u.dynamic[a.Pred] {
				continue
			}
			rel := d.Relation(a.Pred)
			if rel == nil {
				continue
			}
			if lo, hi := idRange(rel, db.RoundWindow{Min: min, Max: max}); lo >= hi {
				continue
			}
			lr := env.led[off+i]
			if lr == nil {
				lr = m.under(orderPermSized(m.rule.Body, i, u.liveSizes(d, true)), true)
				env.led[off+i] = lr
			}
			variants = append(variants, variant{lr.plan, span{led: lr.perm, min: min, max: max}})
		}
		off += len(m.rule.Body)
	}
	return variants
}

// fixpoint runs the unit's rules semi-naively to their fixpoint, mutating
// env.d in place. A non-nil goal halts evaluation via errGoal as soon as the
// goal atom is derived.
//
// The fixpoint only decides which variants each round runs; the round
// executor (rounds.go) fires them under the budget, goal and cancellation
// semantics it shares with the insert loop.
func (u *unit) fixpoint(env *roundEnv) error {
	ctx, d, stats := env.ctx, env.d, env.stats
	// A streamable unit has no delta variants — no rule reads the unit's own
	// heads — so its first full application IS the fixpoint and no
	// confirmation round runs.
	if u.streamable {
		stats.StrataStreamed++
	} else {
		stats.StrataMaterialized++
	}
	env.led = nil
	for first := true; ; first = false {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		prev := d.Round() // facts visible to this round: stamps ≤ prev
		// The planner sees live cardinalities once per rule here and once per
		// delta atom at the first round its delta holds a tuple; every later
		// round reuses those orders.
		if first {
			env.variants = env.firstVariants(u, prev, env.variants[:0])
			if len(env.variants) == 0 {
				// No live rule: every rule is masked or cannot fire, so the
				// unit derives nothing and begins no round.
				return nil
			}
		} else {
			env.variants = env.deltaVariants(u, false, prev, prev, env.variants[:0])
		}
		round := d.BeginRound()
		stats.Rounds++
		if err := env.runRound(env.variants); err != nil {
			return err
		}
		if env.maxDerived > 0 && d.Len()-env.baseLen > env.maxDerived {
			return env.budgetErr()
		}
		if u.streamable || !anyAddedIn(d, u, round) {
			return nil
		}
	}
}
