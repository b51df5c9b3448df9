package eval

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/db"
)

// The round executor evaluates one fixpoint round's variants. It is shared
// by the unit fixpoint (prepare.go) and the insert loop (maintain.go), so
// both honor the same Options — Shards, the derived-fact budget,
// goal-directed early stop, cancellation — through one discipline. Two
// strategies over the one pipeline, committing byte-identical databases:
//
//   - sequential: run variants in order into a fixpointSink, inserting as
//     they emit;
//   - sharded (Shards > 1): split every variant into per-shard tasks over a
//     hash-partitioned ownership view of its outer relation. Each task is
//     the variant's pipeline with an ownership predicate on operator 0 — the
//     delta atom, in a delta round — and a shardSink that buffers derivations
//     tagged with the outer tuple's id. The commit arranges a variant's shard
//     buffers by (outer id, buffer order), which reconstructs exactly the
//     emission order the sequential pipeline produces, so the committed
//     database (and any goal early-stop prefix of it) is byte-identical to
//     Shards = 1 for every shard count.

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
	opts    Options
	stats   *Stats
	baseLen int
	// maxDerived bounds the facts derived beyond baseLen; 0 = unlimited.
	maxDerived int
	goal       *ast.GroundAtom
	prov       *RuleSet
	ruleIdxs   []int
	variants   []variant // the round's variants, a backing store reused round to round
	// led[k] is the running fixpoint's plan for its k-th body atom (rules in
	// unit order) leading a delta variant; nil until that atom's delta first
	// holds a tuple (deltaVariants).
	led  []*loweredRule
	pool shardPool
}

// shardPool is the sharded executor's per-task scratch, owned by the env so
// consecutive rounds (and re-fires) reuse pipeline states, buffers, dedup
// tables and copy arenas instead of reallocating them — on deep fixpoints
// (hundreds of rounds) the per-round zeroing otherwise rivals the join work
// itself. Slices are indexed by task and only ever touched by that task's
// goroutine while a round is in flight.
type shardPool struct {
	states []streamState
	sinks  []shardSink
	bufs   [][]shardPending
	arenas [][]ast.Const
	sets   []taskSet
	stats  []Stats
	aux    mergeAux
}

// taskReset readies the pool for a round (or re-fire) of n tasks.
func (sp *shardPool) taskReset(n int) {
	if len(sp.bufs) < n {
		sp.states = make([]streamState, n)
		sp.sinks = make([]shardSink, n)
		sp.bufs = make([][]shardPending, n)
		sp.arenas = make([][]ast.Const, n)
		sp.sets = make([]taskSet, n)
		sp.stats = make([]Stats, n)
	}
	for i := 0; i < n; i++ {
		sp.bufs[i] = sp.bufs[i][:0]
		sp.arenas[i] = sp.arenas[i][:0]
		sp.sets[i].reset()
		sp.stats[i] = Stats{}
	}
}

func (env *roundEnv) budgetErr() error {
	return fmt.Errorf("%w: derived %d facts (budget %d)", ErrBudget, env.d.Len()-env.baseLen, env.maxDerived)
}

// runRound evaluates a round's variants under the env's options. The
// derived-fact budget and the goal test are enforced inside the emit path,
// so a round that would blow far past the budget (a chase embedding
// on a diverging instance, say) is cut off as soon as the budget is
// exhausted, and a goal-directed evaluation halts the moment the goal is
// derived rather than at the fixpoint.
//
// Every index the round's plans probe is built or extended first: tuples
// inserted mid-round are stamped with the current round, which every window
// excludes, so the indexes frozen here stay sufficient for the whole round and
// in-round probes never lock or mutate.
func (env *roundEnv) runRound(u *unit, variants []variant) error {
	if len(variants) == 0 {
		return nil
	}
	for _, v := range variants {
		v.plan.ensureIndexes(env.d)
	}
	if env.opts.Shards > 1 {
		return env.runSharded(u.partitionCols(), variants)
	}
	return env.runSequential(variants)
}

// runSequential runs variants in order, inserting as they emit. One pooled
// streamState (with its embedded sink) serves every plan in the round;
// nothing else is allocated.
func (env *roundEnv) runSequential(variants []variant) error {
	d := env.d
	st := getStreamState()
	defer putStreamState(st)
	sk := &st.fix
	*sk = fixpointSink{d: d, goal: env.goal, prov: env.prov, ctx: env.ctx, remaining: -1}
	if env.maxDerived > 0 {
		sk.remaining = env.maxDerived - (d.Len() - env.baseLen)
	}
	for _, v := range variants {
		if env.prov != nil {
			sk.ruleIdx = env.ruleIdxs[v.idx]
		}
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

// shardPending is one buffered derivation of a sharded task: the merge key
// its shardSink read off the pipeline's cursor — the outer tuple's id — the
// deriving shard (for delta-exchange accounting), and the fact itself.
type shardPending struct {
	k1    int32
	shard uint8
	pred  string
	args  []ast.Const
}

// taskSet is a task-local open-addressed dedup set over the task's pending
// buffer, sharing the store's tuple hash. A task walks its outer ids
// ascending, so the first emission of a fact carries the least merge key any
// of its duplicates would: a duplicate is simply dropped.
//
// Entries are epoch-stamped so the executor's task pools reset the set in
// O(1) between rounds instead of re-zeroing (or reallocating) the tables.
type taskSet struct {
	mask  uint64
	hash  []uint64
	slot  []int32 // 1-based ordinal into the task buffer
	epoch []int32
	cur   int32
	n     int
}

// reset empties the set, keeping its tables for the next round.
func (ts *taskSet) reset() { ts.cur++; ts.n = 0 }

// add reports whether args is new to the task; the caller must then append
// the fact to buf (whose new length add already accounted for).
func (ts *taskSet) add(buf []shardPending, args []ast.Const) bool {
	if 4*(ts.n+1) > 3*len(ts.slot) {
		ts.grow(buf)
	}
	h := db.HashTuple(args)
	for i := h & ts.mask; ; i = (i + 1) & ts.mask {
		if ts.epoch[i] != ts.cur || ts.slot[i] == 0 {
			ts.hash[i] = h
			ts.slot[i] = int32(len(buf)) + 1
			ts.epoch[i] = ts.cur
			ts.n++
			return true
		}
		if ts.hash[i] == h && constsEqual(buf[ts.slot[i]-1].args, args) {
			return false
		}
	}
}

func (ts *taskSet) grow(buf []shardPending) {
	size := 2 * len(ts.slot)
	if size < 64 {
		size = 64
	}
	hash := make([]uint64, size)
	slot := make([]int32, size)
	epoch := make([]int32, size)
	mask := uint64(size - 1)
	for i := range ts.slot {
		if ts.epoch[i] != ts.cur || ts.slot[i] == 0 {
			continue
		}
		h := ts.hash[i]
		for j := h & mask; ; j = (j + 1) & mask {
			if slot[j] == 0 {
				hash[j], slot[j], epoch[j] = h, ts.slot[i], ts.cur
				break
			}
		}
	}
	ts.mask, ts.hash, ts.slot, ts.epoch = mask, hash, slot, epoch
}

// mergeAux holds the commit-order scratch reused across a sharded
// evaluation's merges.
type mergeAux struct {
	counts []int32
	out    []shardPending
}

// commitOrder arranges one variant's task buffers (bufs, in shard order)
// into the sequential commit order (k1 asc, then concatenation order).
// Ownership makes the merge keys hash-disjoint across a variant's shards, so
// the order is recovered with a stable counting scatter over k1 — linear in
// the emissions, against the comparison sort's B·log B, and reading the shard
// buffers in place, so the merge never materializes a concatenation. Rounds
// whose k1 range is far wider than their population (sparse late-round
// deltas of a large relation) fall back to the comparison sort rather than
// paying a near-empty histogram.
func commitOrder(bufs [][]shardPending, aux *mergeAux) []shardPending {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if cap(aux.out) < total {
		aux.out = make([]shardPending, total)
	}
	out := aux.out[:total]
	if total == 0 {
		return out
	}
	var minK1, maxK1 int32
	first := true
	for _, b := range bufs {
		for i := range b {
			k := b[i].k1
			if first {
				minK1, maxK1, first = k, k, false
			} else if k < minK1 {
				minK1 = k
			} else if k > maxK1 {
				maxK1 = k
			}
		}
	}
	width := int(maxK1-minK1) + 1
	if width > 4*total+1024 {
		out = out[:0]
		for _, b := range bufs {
			out = append(out, b...)
		}
		slices.SortStableFunc(out, func(a, b shardPending) int { return cmp.Compare(a.k1, b.k1) })
		return out
	}
	if cap(aux.counts) < width {
		aux.counts = make([]int32, width)
	}
	counts := aux.counts[:width]
	clear(counts)
	for _, b := range bufs {
		for i := range b {
			counts[b[i].k1-minK1]++
		}
	}
	var sum int32
	for i := range counts {
		c := counts[i]
		counts[i] = sum
		sum += c
	}
	for _, b := range bufs {
		for i := range b {
			pos := counts[b[i].k1-minK1]
			counts[b[i].k1-minK1] = pos + 1
			out[pos] = b[i]
		}
	}
	return out
}

// shardSink is a shard task's emit path: dedup against the frozen head
// relation and the task-local set, then buffer the fact under its merge key,
// the id of the outer tuple the pipeline's position-0 cursor is on.
//
// On duplicate-heavy workloads almost every firing re-derives a known fact,
// so the rejection path is the executor's hot loop: the head predicate is
// fixed per variant, letting the pred→relation map lookup hoist out of it,
// and the frozen relation's table is probed read-only. Facts new to the
// round dedup against the task-local set, so only distinct facts are copied,
// buffered and sorted, and cross-task duplicates still resolve at the merge,
// so byte identity is preserved.
//
// The frozen-table probe is itself adaptive: it saves a buffer entry when it
// hits, but on low-duplicate rounds nearly every probe misses against a
// table too large to stay in cache, and the commit re-probes at insert
// anyway. Each task samples its first probeSample emissions and drops the
// prefilter for the rest of the task when under a quarter of them were
// duplicates — the merge's insert remains the one authoritative dedup, so
// the switch cannot change what commits, or in what order.
type shardSink struct {
	st       *streamState // the task's pipeline state: cursors and shard
	headRel  *db.Relation // frozen-table prefilter; nil once dropped
	probed   int
	rejected int
	local    *taskSet
	buf      []shardPending
	arena    []ast.Const // chunked copy space; grown slices keep old chunks alive
	// Budget tripwire shared by the round's tasks; budget 0 = unlimited.
	budget    int64
	tentative *atomic.Int64
	tripped   *atomic.Bool
}

const probeSample = 512

func (s *shardSink) emit(pred string, args []ast.Const) (bool, bool) {
	if s.headRel != nil {
		_, dup := s.headRel.LookupID(args)
		if dup {
			s.rejected++
		}
		if s.probed++; s.probed == probeSample && 4*s.rejected < probeSample {
			s.headRel = nil
		}
		if dup {
			return false, false
		}
	}
	if !s.local.add(s.buf, args) {
		return false, false
	}
	n := len(s.arena)
	s.arena = append(s.arena, args...)
	cp := s.arena[n:len(s.arena):len(s.arena)]
	s.buf = append(s.buf, shardPending{k1: s.st.cur[0], shard: s.st.shard, pred: pred, args: cp})
	if s.budget == 0 {
		return true, false // tentatively new; the merge dedups across tasks
	}
	if s.tentative.Add(1) > s.budget {
		s.tripped.Store(true)
	}
	return true, s.tripped.Load()
}

// runSharded splits every variant into Shards ownership-disjoint tasks and
// merges their buffers deterministically (see the comment at the top of the
// file). The budget tripwire counts tentative emissions (each task dedups
// against the frozen database but not against its peers), so it can only
// overcount; when it trips without the merged total actually exceeding the
// budget, the truncated round is re-fired — already-merged facts then dedup
// at emit time, so every re-fire either completes the round or strictly
// grows the database until the budget genuinely runs out.
//
// Goal-directed runs commit with a prefix cut. In-flight tasks are
// deliberately NOT aborted (cutting peers off mid-enumeration would make the
// partial database depend on goroutine scheduling); instead the merge
// commits in variant order and stops at the first committed goal fact. Each
// task only probes frozen indexes — tuples inserted mid-round are stamped
// with the current round, which every window excludes — so the committed
// prefix equals the sequential partial database byte for byte. Cancellation
// is likewise observed at round (and re-fire) boundaries.
//
// Task concurrency is min(Shards, GOMAXPROCS); on one proc the tasks run
// inline in task order (still buffered — the merge is what defines the
// commit order, not the firing schedule).
func (env *roundEnv) runSharded(partCol map[string]int, variants []variant) error {
	d, opts, stats, goal := env.d, env.opts, env.stats, env.goal
	shards := opts.Shards
	// The ownership view of each variant's outer predicate under the planner's
	// partition column, frozen here, before any task runs, so every in-round
	// ownership test is a lock-free read covering exactly the ids the round
	// windows admit.
	views := make([]db.ShardView, len(variants))
	for vi, v := range variants {
		if len(v.plan.ops) > 0 {
			pred := v.plan.ops[0].pred
			views[vi] = d.EnsureShardView(pred, partCol[pred], shards)
		}
	}
	var tentative atomic.Int64
	var tripped atomic.Bool
	width := min(shards, runtime.GOMAXPROCS(0))
	nTasks := len(variants) * shards
	pool := &env.pool
	for {
		if err := CtxErr(env.ctx); err != nil {
			return err
		}
		tentative.Store(int64(d.Len() - env.baseLen))
		tripped.Store(false)
		pool.taskReset(nTasks)
		run := func(ti int) {
			v := variants[ti/shards]
			sp, shard := v.plan, uint8(ti%shards)
			if len(sp.ops) == 0 && shard != 0 {
				return // ground heads run on shard 0 only
			}
			st := &pool.states[ti]
			st.owned, st.view, st.shard = true, views[ti/shards], shard
			sink := &pool.sinks[ti]
			*sink = shardSink{
				st:    st,
				local: &pool.sets[ti], buf: pool.bufs[ti], arena: pool.arenas[ti],
				budget: int64(env.maxDerived), tentative: &tentative, tripped: &tripped,
			}
			if rel := d.Relation(sp.head.pred); rel != nil && rel.Arity() == len(sp.head.args) {
				sink.headRel = rel
			}
			sp.run(d, v.win, st, &pool.stats[ti], sink)
			pool.bufs[ti], pool.arenas[ti] = sink.buf, sink.arena
		}
		if width == 1 {
			for ti := 0; ti < nTasks; ti++ {
				run(ti)
			}
		} else {
			sem := make(chan struct{}, width)
			var wg sync.WaitGroup
			for ti := 0; ti < nTasks; ti++ {
				wg.Add(1)
				go func(ti int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					run(ti)
				}(ti)
			}
			wg.Wait()
		}
		// Deterministic merge, single-threaded after the tasks join. Within
		// one variant the shard buffers partition the outer enumeration:
		// arranging the concatenation by (k1, concat order) — see commitOrder
		// — restores the sequential emission sequence, and emissions sharing a
		// key come from a single shard in already-correct relative order
		// (ownership makes the key spaces disjoint across shards). Variants
		// then commit in variant order.
		buffers, statsArr := pool.bufs, pool.stats
		for vi := range variants {
			base := vi * shards
			for s := 0; s < shards; s++ {
				stats.Firings += statsArr[base+s].Firings
				stats.BindingsPipelined += statsArr[base+s].BindingsPipelined
			}
			all := commitOrder(buffers[base:base+shards], &pool.aux)
			merged := 0
			cut := false
			for i := range all {
				pf := &all[i]
				if d.AddTuple(pf.pred, pf.args) {
					stats.Added++
					merged++
					// Boundary-delta exchange: a committed fact whose owner
					// shard (under the head predicate's partition column)
					// differs from the shard that derived it would cross
					// shards in a distributed deployment.
					owner := uint8(0)
					if col, ok := partCol[pf.pred]; ok {
						owner = db.ShardOwner(pf.args, col, shards)
					}
					if owner != pf.shard {
						stats.DeltaExchanged++
					}
					if goal != nil && pf.pred == goal.Pred && constsEqual(pf.args, goal.Args) {
						cut = true
						break
					}
				}
			}
			if env.prov != nil && merged > 0 {
				env.prov.Add(env.ruleIdxs[variants[vi].idx])
			}
			if cut {
				return errGoal
			}
		}
		stats.ShardRounds += shards
		perShard := make([]int, shards)
		for ti := 0; ti < nTasks; ti++ {
			perShard[ti%shards] += statsArr[ti].Firings
		}
		maxF, totF := 0, 0
		for _, f := range perShard {
			totF += f
			maxF = max(maxF, f)
		}
		stats.ShardImbalance += maxF - totF/shards
		if !tripped.Load() {
			return nil
		}
		if d.Len()-env.baseLen > env.maxDerived {
			return env.budgetErr()
		}
	}
}

// partitionCols chooses, per predicate, the column sharded rounds partition
// its tuples by: the position that most often carries a join variable (one
// occurring more than once in its rule), ties to the lowest position, so
// partition keys align with join keys as often as the program's shape
// allows. The choice affects only load balance and the delta-exchange
// accounting, never results — inner probes always read the full frozen
// store. Predicates with no scoring position partition on column 0; nullary
// predicates get -1, the home-shard fallback. Only sharded rounds read the
// choice, so it is made on the first one.
func (u *unit) partitionCols() map[string]int {
	u.partOnce.Do(func() { u.partCol = partitionCols(u.rules) })
	return u.partCol
}

func partitionCols(rules []*ruleMemo) map[string]int {
	arity := map[string]int{}
	score := map[string][]int{}
	for _, m := range rules {
		r := m.rule
		counts := map[string]int{}
		tally := func(a ast.Atom) {
			for _, t := range a.Args {
				if t.IsVar {
					counts[t.Name]++
				}
			}
		}
		tally(r.Head)
		for _, a := range r.Body {
			tally(a)
		}
		for _, a := range r.NegBody {
			tally(a)
		}
		mark := func(a ast.Atom) {
			if _, ok := arity[a.Pred]; !ok {
				arity[a.Pred] = len(a.Args)
				score[a.Pred] = make([]int, len(a.Args))
			}
			s := score[a.Pred]
			for i, t := range a.Args {
				if i < len(s) && t.IsVar && counts[t.Name] >= 2 {
					s[i]++
				}
			}
		}
		mark(r.Head)
		for _, a := range r.Body {
			mark(a)
		}
	}
	out := make(map[string]int, len(arity))
	for pred, ar := range arity {
		if ar == 0 {
			out[pred] = -1
			continue
		}
		best, bestScore := 0, score[pred][0]
		for i := 1; i < ar; i++ {
			if score[pred][i] > bestScore {
				best, bestScore = i, score[pred][i]
			}
		}
		out[pred] = best
	}
	return out
}
