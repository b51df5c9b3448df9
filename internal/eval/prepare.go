package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
)

// The prepared layer caches everything about a program that does not depend
// on the input database: validation, the dependence graph, the stratum/SCC
// schedule, and — per join order actually encountered — the compiled rules
// and the index column sets their probes need. Every decision procedure in
// the paper (the frozen-body containment test of Section VI, the Fig. 1/2
// minimization loops, the Section X–XI pipeline) evaluates the same program
// against many small databases; preparing once amortizes the per-call
// analysis they all used to repeat.

// errGoal is the internal sentinel a fixpoint returns when Run's goal was
// derived; Prepared.Run converts it into a successful early return.
var errGoal = errors.New("eval: goal reached")

// Prepared is a program analyzed and compiled for repeated evaluation:
// Prepare once, then Eval against many input databases. The schedule
// (strata / strongly connected components) is computed at Prepare time; the
// compiled form of each rule is cached per join order, so steady-state
// rounds and repeat evaluations skip recompilation entirely. A Prepared is
// safe for concurrent use.
type Prepared struct {
	prog  *ast.Program
	opts  Options
	units []*unit
	// unitIdxs[i] lists the program rule indexes of units[i].rules, in the
	// same order. It belongs to this Prepared, not to the unit: Derive
	// shares unchanged units between plans whose programs index the same
	// rules differently, so each owner keeps its own mapping. It is what
	// lets the provenance path translate a unit-local firing into a program
	// rule index.
	unitIdxs [][]int

	// One-step application of the whole program in the static join order,
	// built on first use by NonRecursive / IsClosed.
	nonrecOnce sync.Once
	nonrec     *roundSetup
}

// unit is one fixpoint of the evaluation schedule: a stratum (under
// negation) or one group of mutually recursive rules (SCC schedule), with
// the dynamic predicates its delta machinery tracks.
type unit struct {
	rules   []ast.Rule
	dynamic map[string]bool
	// streamable marks a unit none of whose rules read the unit's own head
	// predicates (positively or under negation): its semi-naive fixpoint is
	// one full application, with no delta rounds and no confirmation round.
	streamable bool
	// partCol is the planner-chosen partition column per predicate of the
	// unit's rules (see partitionCols), consulted by the sharded executor.
	partCol map[string]int

	// maint is the unit's view-maintenance plan (see unit.maintPlan).
	maintOnce sync.Once
	maint     *maintPlan

	mu     sync.Mutex
	cache  map[string]*roundSetup // keyed by the packed join-order perms
	keyBuf []byte
}

// roundSetup is everything a round needs for one join order of a rule set:
// the reordered rules, their pipeline plans, and the index column sets the
// round's probes will touch. Setups are immutable once built and shared
// across rounds, evaluations, and goroutines.
type roundSetup struct {
	ordered []ast.Rule
	plans   []*streamPlan
	// swapped holds the delta-first plans the sharded executor substitutes
	// for delta-at-position-1 variants (see buildSwapped); nil when the
	// options run unsharded, an entry is nil when its rule is ineligible.
	swapped []*streamPlan
	needs   []indexNeed
}

// Prepare validates p and builds its evaluation schedule under opts. The
// program is cloned, so later mutation of p (the minimization loops rewrite
// rules in place) cannot corrupt the prepared state.
func Prepare(p *ast.Program, opts Options) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts.Shards = min(max(opts.Shards, 1), 256) // ownership views store owners in one byte
	pr := &Prepared{prog: p.Clone(), opts: opts}
	groups, err := scheduleGroups(pr.prog)
	if err != nil {
		return nil, err
	}
	for _, group := range groups {
		pr.units = append(pr.units, newUnit(pr.prog, group))
		pr.unitIdxs = append(pr.unitIdxs, group)
	}
	return pr, nil
}

// scheduleGroups computes the evaluation schedule of p as groups of rule
// indexes, one group per fixpoint unit, in evaluation order: SCC groups
// (producer-first) for pure programs, strata for programs with negation.
// Empty groups are not emitted.
func scheduleGroups(p *ast.Program) ([][]int, error) {
	if !p.HasNegation() {
		return sccRuleGroups(p), nil
	}
	// Stratified negation: one unit per stratum; by stratification a negated
	// predicate is complete before any rule reading it runs.
	strata, err := depgraph.Strata(p)
	if err != nil {
		return nil, err
	}
	var groups [][]int
	for _, stratum := range strata {
		inStratum := make(map[string]bool, len(stratum))
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		var group []int
		for ri, r := range p.Rules {
			if inStratum[r.Head.Pred] {
				group = append(group, ri)
			}
		}
		if len(group) > 0 {
			groups = append(groups, group)
		}
	}
	return groups, nil
}

// newUnit builds the fixpoint unit for one schedule group of p. The unit's
// dynamic set is the head predicates of its own rules: for an SCC group
// that is the component's mutually recursive predicates, for a stratum the
// stratum's intentional predicates.
func newUnit(p *ast.Program, group []int) *unit {
	rules := make([]ast.Rule, len(group))
	dyn := make(map[string]bool)
	for j, ri := range group {
		rules[j] = p.Rules[ri]
		dyn[p.Rules[ri].Head.Pred] = true
	}
	u := &unit{rules: rules, dynamic: dyn, partCol: partitionCols(rules)}
	u.streamable = true
	for _, r := range rules {
		for _, a := range r.Body {
			if dyn[a.Pred] {
				u.streamable = false
			}
		}
		for _, a := range r.NegBody {
			if dyn[a.Pred] {
				u.streamable = false
			}
		}
	}
	return u
}

// idxKey packs a rule-index list into a map key.
func idxKey(idxs []int) string {
	b := make([]byte, 0, 4*len(idxs))
	for _, i := range idxs {
		b = append(b, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
	}
	return string(b)
}

// Derive builds the plan for the program obtained from the prepared one by
// a single-rule delta — deleting rule ruleIdx (newRule nil) or replacing it
// (newRule non-nil) — without re-running the full preparation. A one-rule
// change only perturbs the schedule units whose rule sets actually change:
// the schedule is recomputed (cheap graph work), but every group that maps
// onto an identical group of the old plan shares the old unit pointer, and
// with it the unit's compiled rules and join-order caches. Units are
// internally synchronized, so sharing them between plans is safe; the
// rules inside are treated as immutable by the whole package.
func (pr *Prepared) Derive(ruleIdx int, newRule *ast.Rule) (*Prepared, error) {
	if ruleIdx < 0 || ruleIdx >= len(pr.prog.Rules) {
		return nil, fmt.Errorf("eval: Derive: rule index %d out of range (%d rules)", ruleIdx, len(pr.prog.Rules))
	}
	np := ast.NewProgram()
	np.Rules = make([]ast.Rule, 0, len(pr.prog.Rules))
	for i, r := range pr.prog.Rules {
		switch {
		case i == ruleIdx && newRule == nil:
			continue
		case i == ruleIdx:
			np.Rules = append(np.Rules, newRule.Clone())
		default:
			np.Rules = append(np.Rules, r)
		}
	}
	if err := np.Validate(); err != nil {
		return nil, err
	}
	groups, err := scheduleGroups(np)
	if err != nil {
		return nil, err
	}
	// Old units by their rule-index lists; a new group is the same unit iff
	// its rules map to exactly that list (same rules, same order).
	oldUnits := make(map[string]*unit, len(pr.units))
	for ui, idxs := range pr.unitIdxs {
		oldUnits[idxKey(idxs)] = pr.units[ui]
	}
	toOld := func(newIdx int) int {
		if newRule == nil && newIdx >= ruleIdx {
			return newIdx + 1
		}
		return newIdx
	}
	out := &Prepared{prog: np, opts: pr.opts}
	mapped := make([]int, 0, len(np.Rules))
	for _, group := range groups {
		reuse := true
		mapped = mapped[:0]
		for _, ni := range group {
			oi := toOld(ni)
			mapped = append(mapped, oi)
			if newRule != nil && oi == ruleIdx {
				// The replaced rule lives in this group; its unit holds the
				// old rule's compiled form and must be rebuilt.
				reuse = false
			}
		}
		var u *unit
		if reuse {
			u = oldUnits[idxKey(mapped)]
		}
		if u == nil {
			u = newUnit(np, group)
		}
		out.units = append(out.units, u)
		out.unitIdxs = append(out.unitIdxs, group)
	}
	return out, nil
}

// Program returns the prepared program (the clone taken at Prepare time).
// Callers must not mutate it.
func (pr *Prepared) Program() *ast.Program { return pr.prog }

// Eval computes P(input) exactly like the package-level Eval, reusing the
// prepared schedule and compile caches. It is Run with no cancellation,
// goal, budget or provenance.
func (pr *Prepared) Eval(input *db.Database) (*db.Database, Stats, error) {
	out, _, stats, err := pr.Run(context.Background(), input, nil, 0, nil)
	return out, stats, err
}

// Run is the one evaluation entry point every per-call concern goes
// through; each argument after ctx may be its zero value. An input relation
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
//   - prov, when non-nil, records rule provenance: every program rule that
//     derived at least one new fact before evaluation halted is added
//     (indexes into Program().Rules). The recorded set is a superset of the
//     rules used by any derivation present in the output — in particular,
//     of some witnessing derivation of the goal when it is reached — which
//     is exactly the conservative guarantee the containment layer needs to
//     keep a memoized verdict across a rule deletion: if a deleted rule is
//     not in prov, no derivation the evaluation produced could have used it.
func (pr *Prepared) Run(ctx context.Context, input *db.Database, goal *ast.GroundAtom, maxDerived int, prov *RuleSet) (*db.Database, bool, Stats, error) {
	var stats Stats
	if err := CtxErr(ctx); err != nil {
		return nil, false, stats, err
	}
	if err := pr.checkInput(input); err != nil {
		return nil, false, stats, err
	}
	d := input.Clone()
	if goal != nil && d.Has(*goal) {
		return d, true, stats, nil
	}
	env := &roundEnv{
		ctx: ctx, d: d, opts: pr.opts, stats: &stats,
		baseLen: input.Len(), maxDerived: maxDerived, goal: goal, prov: prov,
	}
	for ui, u := range pr.units {
		if prov != nil {
			env.ruleIdxs = pr.unitIdxs[ui]
		}
		if err := u.fixpoint(env); err != nil {
			if errors.Is(err, errGoal) {
				return d, true, stats, nil
			}
			return nil, false, stats, err
		}
	}
	return d, false, stats, nil
}

// checkInput rejects an input relation whose arity contradicts an atom of the
// program: the store panics on the first tuple a rule derives into it. The
// walk is over the program's atoms, not the input's facts, and precomputes
// nothing — Derive hands out a plan per candidate deletion.
func (pr *Prepared) checkInput(input *db.Database) error {
	for _, r := range pr.prog.Rules {
		for _, atoms := range [3][]ast.Atom{{r.Head}, r.Body, r.NegBody} {
			for _, a := range atoms {
				if rel := input.Relation(a.Pred); rel != nil && rel.Arity() != len(a.Args) {
					return fmt.Errorf("%w: input relation %s has arity %d, the program uses %s/%d", ErrArity, a.Pred, rel.Arity(), a.Pred, len(a.Args))
				}
			}
		}
	}
	return nil
}

// Query evaluates the prepared program on input and returns the tuples
// matching the query atom, like the package-level Query.
func (pr *Prepared) Query(input *db.Database, query ast.Atom) ([][]ast.Const, error) {
	out, _, err := pr.Eval(input)
	if err != nil {
		return nil, err
	}
	return db.Select(out, query), nil
}

// applyOnce runs each of the setup's rules once over all of d — a full span,
// so every firing valid in d reaches sink exactly once — until sink halts.
func (rs *roundSetup) applyOnce(d *db.Database, st *streamState, stats *Stats, sink streamSink) {
	win := fullSpan(d.Round())
	for _, sp := range rs.plans {
		st.ensure(sp)
		if !sp.run(d, win, st, stats, sink) {
			return
		}
	}
}

// onePass applies every rule of the program once to d — no derivation feeds
// back, so each rule is one full-span pipeline run whatever recursion the
// program has — in the static join order (no live cardinalities exist for a
// one-shot pass), routing head instantiations to sink until it halts. d
// gains the hash indexes the joins probe but no facts. The returned stats
// are the pass's own.
func (pr *Prepared) onePass(d *db.Database, sink streamSink) Stats {
	pr.nonrecOnce.Do(func() {
		pr.nonrec = buildSetup(pr.prog.Rules, staticPerms(pr.prog.Rules), false, nil)
	})
	rs := pr.nonrec
	for _, n := range rs.needs {
		d.EnsureIndex(n.pred, n.cols)
	}
	st := getStreamState(nil)
	defer putStreamState(st)
	var stats Stats
	rs.applyOnce(d, st, &stats, sink)
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

// setupFor returns the evaluation setup for the unit's rules under the
// current relation sizes, reusing a cached compilation when some earlier
// round already saw the same greedy join order. The cache is the heart of
// the prepared layer: steady-state fixpoint rounds and repeat evaluations
// hit it, so rule cloning and compilation happen once per distinct order
// rather than once per round.
func (u *unit) setupFor(d *db.Database, opts Options) *roundSetup {
	u.mu.Lock()
	defer u.mu.Unlock()
	sizeOf := func(pred string) int {
		if rel := d.Relation(pred); rel != nil {
			return rel.Live()
		}
		return 0
	}
	perms := make([][]int, len(u.rules))
	key := u.keyBuf[:0]
	cacheable := true
	for i, r := range u.rules {
		perms[i] = db.OrderPermSized(r.Body, nil, sizeOf)
		if len(perms[i]) > 255 {
			cacheable = false // a body this large cannot pack into bytes
		}
		key = append(key, byte(len(perms[i])))
		for _, p := range perms[i] {
			key = append(key, byte(p))
		}
	}
	u.keyBuf = key
	if !cacheable {
		return u.build(perms, opts)
	}
	if rs, ok := u.cache[string(key)]; ok {
		return rs
	}
	rs := u.build(perms, opts)
	if u.cache == nil {
		u.cache = make(map[string]*roundSetup)
	}
	u.cache[string(key)] = rs
	return rs
}

func (u *unit) build(perms [][]int, opts Options) *roundSetup {
	return buildSetup(u.rules, perms, opts.Shards > 1, func(pred string) bool { return u.dynamic[pred] })
}

// staticPerms is the greedy join order with no cardinalities to consult:
// what one-shot passes and the insert loop use, since their databases are
// either tiny or already closed.
func staticPerms(rules []ast.Rule) [][]int {
	perms := make([][]int, len(rules))
	for i, r := range rules {
		perms[i] = db.OrderPermSized(r.Body, nil, nil)
	}
	return perms
}

// buildSetup clones rules into the given join orders and lowers them to
// pipeline plans. With sharded set it also lowers the delta-first forms
// sharded rounds may substitute — deltaAt reports whether a predicate can
// hold a round's delta — and registers the index columns their displaced
// probes need, so the round-boundary freeze covers them. The result is
// immutable.
func buildSetup(rules []ast.Rule, perms [][]int, sharded bool, deltaAt func(pred string) bool) *roundSetup {
	rs := &roundSetup{
		ordered: make([]ast.Rule, len(rules)),
		plans:   make([]*streamPlan, len(rules)),
	}
	for i, r := range rules {
		or := r.Clone()
		body := make([]ast.Atom, len(or.Body))
		for j, pi := range perms[i] {
			body[j] = or.Body[pi]
		}
		or.Body = body
		rs.ordered[i] = or
		rs.plans[i] = lowerRule(or, nil)
	}
	rs.needs = indexNeeds(rs.ordered)
	if sharded {
		var extra []indexNeed
		rs.swapped, extra = buildSwapped(rs.ordered, deltaAt)
		rs.needs = append(rs.needs, extra...)
	}
	return rs
}

// fixpoint runs the unit's rules semi-naively to their fixpoint, mutating
// env.d in place. A non-nil goal halts evaluation via errGoal as soon as the
// goal atom is derived. A non-nil prov collects the program rule indexes (via
// ruleIdxs, the owner Prepared's unit-local → program mapping) of every
// rule that derived at least one new fact.
//
// The fixpoint only decides which variants each round runs; the round
// executor (rounds.go) owns the sequential / sharded firing disciplines and
// their shared budget, goal and cancellation semantics.
func (u *unit) fixpoint(env *roundEnv) error {
	ctx, d, opts, stats := env.ctx, env.d, env.opts, env.stats
	// A streamable unit has no delta variants — no rule reads the unit's own
	// heads — so its first full application IS the fixpoint and no
	// confirmation round runs.
	if u.streamable {
		stats.StrataStreamed++
	} else {
		stats.StrataMaterialized++
	}
	var variants []variant
	for first := true; ; first = false {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		prev := d.Round() // facts visible to this round: stamps ≤ prev
		round := d.BeginRound()
		stats.Rounds++
		// setupFor picks the setup for the current relation sizes; the greedy
		// join-order heuristic sees live cardinalities at every round
		// boundary, but recompilation only happens for orders not seen
		// before. The loop after it builds or extends every index the round's
		// joins will probe. Tuples inserted mid-round are stamped with the
		// current round, which every window excludes, so the frozen indexes
		// stay sufficient for the whole round and in-round probes never lock
		// or mutate.
		rs := u.setupFor(d, opts)
		for _, n := range rs.needs {
			d.EnsureIndex(n.pred, n.cols)
		}
		variants = variants[:0]
		for idx, r := range rs.ordered {
			if first {
				variants = append(variants, variant{idx, fullSpan(prev)})
				continue
			}
			// Semi-naive: one variant per dynamic body position.
			for i, a := range r.Body {
				if u.dynamic[a.Pred] {
					variants = append(variants, variant{idx, span{delta: i, min: prev, max: prev}})
				}
			}
		}
		if err := env.runRound(rs, u.partCol, variants); err != nil {
			return err
		}
		if env.maxDerived > 0 && d.Len()-env.baseLen > env.maxDerived {
			return env.budgetErr()
		}
		if u.streamable || !anyAddedIn(d, round) {
			return nil
		}
	}
}
