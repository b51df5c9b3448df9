package eval

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
)

// The round executor evaluates one fixpoint round's variants. It is shared
// by the unit fixpoint (prepare.go) and the insert loop (maintain.go), so
// both honor the derived-fact budget, goal-directed early stop and
// cancellation through one discipline: run the variants in order over the
// one pipeline into a fixpointSink, inserting as they emit. The evaluator is
// single-threaded per run; concurrency belongs to its callers.

// variant is one application of a rule in a round: idx is the rule's index
// in its unit, plan the rule lowered under the variant's join order, win the
// rounds each body position may read.
type variant struct {
	idx  int
	plan *streamPlan
	win  span
}

// roundEnv is the per-evaluation state the round executor runs under. One
// env serves every round of every unit of an evaluation (or of an insert
// loop).
type roundEnv struct {
	ctx     context.Context
	d       *db.Database
	stats   *Stats
	baseLen int
	// maxDerived bounds the facts derived beyond baseLen; 0 = unlimited.
	maxDerived int
	goal       *ast.GroundAtom
	variants   []variant // the round's variants, a backing store reused round to round
	// led[k] is the running fixpoint's plan for its k-th body atom (rules in
	// unit order) leading a delta variant; nil until that atom's delta first
	// holds a tuple (deltaVariants).
	led []*loweredRule
	// skip masks program rules out of the run (Prepared.RunMasked): skip[i]
	// set means rule i contributes no variant. Nil masks nothing.
	skip []bool
}

// masked reports whether rule idx of unit u is switched off for this run.
func (env *roundEnv) masked(u *unit, idx int) bool {
	return env.skip != nil && env.skip[u.idxs[idx]]
}

func (env *roundEnv) budgetErr() error {
	return fmt.Errorf("%w: derived %d facts (budget %d)", ErrBudget, env.d.Len()-env.baseLen, env.maxDerived)
}

// runRound runs a round's variants in order, inserting as they emit. The
// derived-fact budget and the goal test are enforced inside the emit path,
// so a round that would blow far past the budget (a chase embedding
// on a diverging instance, say) is cut off as soon as the budget is
// exhausted, and a goal-directed evaluation halts the moment the goal is
// derived rather than at the fixpoint.
//
// Every index the round's plans probe is built or extended first: tuples
// inserted mid-round are stamped with the current round, which every window
// excludes, so the indexes frozen here stay sufficient for the whole round and
// in-round probes never lock or mutate. One pooled streamState (with its
// embedded sink) serves every plan in the round; nothing else is allocated.
func (env *roundEnv) runRound(variants []variant) error {
	if len(variants) == 0 {
		return nil
	}
	d := env.d
	for _, v := range variants {
		v.plan.ensureIndexes(d)
	}
	st := getStreamState()
	defer putStreamState(st)
	sk := &st.fix
	*sk = fixpointSink{d: d, goal: env.goal, ctx: env.ctx, remaining: -1}
	if env.maxDerived > 0 {
		sk.remaining = env.maxDerived - (d.Len() - env.baseLen)
	}
	for _, v := range variants {
		if v.plan.run(d, v.win, st, env.stats, sk) {
			continue
		}
		env.stats.EarlyStopCuts++
		switch {
		case sk.goalHit:
			return errGoal
		case sk.canceled:
			return CtxErr(env.ctx)
		}
		return env.budgetErr()
	}
	return nil
}
