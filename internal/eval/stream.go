package eval

import (
	"context"
	"slices"
	"sync"

	"repro/internal/ast"
	"repro/internal/db"
)

// The operator pipeline is the one code path that joins a rule body. A rule
// is lowered — variables to indexes into a flat []Const slot frame, so the
// pipeline never touches a variable name or a binding map — into a chain of
// relational operators (index-probe scan, dedup-table lookup, natural-join
// probe, selection, projection/emit) and driven as a pull-based iterator
// pipeline: bindings flow through the join one tuple at a time and no
// intermediate binding set is ever materialized.
//
// Every rule application in the package is this pipeline under a different
// span (what each operator may read) and a different sink (what happens to a
// head instantiation): a first-round full application, a semi-naive delta
// variant, a one-pass non-recursive unit, the one-step Pⁿ / IsClosed
// pass, a maintenance insert round and every retraction-side
// enumeration of view maintenance (maintain.go) differ in nothing else.
//
// The lowering is purely static. Because a plan is compiled for one body
// order, the set of columns bound at each position is known at compile time:
// constants and variables bound by earlier atoms become the probe key of a
// join operator, first occurrences of a variable become assignments into the
// slot frame, and repeat occurrences within one atom become selection checks.
// That staticness is what the executor's inner loop buys its speed with —
// no per-candidate re-verification of already-keyed columns (the column
// index exact-matches the key), no dynamic boundness tests, and no unbinding
// on backtrack (a slot is only ever read by operators downstream of the one
// that assigns it).

// opKind classifies how a stream operator enumerates its candidate tuples.
type opKind uint8

const (
	// opScan has no bound columns: it walks its window's id-range ascending.
	opScan opKind = iota
	// opLookup has every column bound: a single dedup-table probe.
	opLookup
	// opProbe has some columns bound: it seeks the column index chain for
	// the key built from constants and earlier-bound slots.
	opProbe
)

// argAct is one selection/binding action on a candidate tuple's column:
// assign the column value into a slot (first occurrence of a variable), or
// check it against an already-assigned slot (repeat occurrence within the
// same atom) or, slot < 0, against the constant keyConst[^slot] (a delta-led
// plan's lead atom: it walks the delta, so its constants select instead of
// keying). Columns covered by the probe key need no action — the index
// exact-matches them.
type argAct struct {
	col   int
	slot  int
	check bool
}

// streamOp is one compiled pipeline stage: the atom's relation, how to
// enumerate matching tuples (kind + key recipe), and the actions to apply
// per candidate.
type streamOp struct {
	kind  opKind
	pred  string
	arity int
	// cols lists the bound columns, ascending; keySrc[j] ≥ 0 names the slot
	// whose value keys column cols[j], keySrc[j] < 0 selects keyConst[j].
	cols     []int
	keySrc   []int
	keyConst []ast.Const
	acts     []argAct
}

// compiledAtom is an atom over variable slots: args[i] ≥ 0 is a slot index,
// args[i] < 0 means constant consts[i].
type compiledAtom struct {
	pred   string
	args   []int
	consts []ast.Const
}

// streamPlan is one rule lowered to a pipeline: the operator chain in body
// order, plus the negated literals and head in slot form.
type streamPlan struct {
	vars  []string // the slot names
	arity int      // the widest atom: head, body or negated
	ops   []streamOp
	neg   []compiledAtom
	head  compiledAtom
}

// ensureIndexes builds or extends the indexes the plan's probe operators
// seek: for each, the columns holding constants or variables bound by an
// earlier operator. Lookups probe the dedup table and scans walk ids, so
// neither needs one.
func (sp *streamPlan) ensureIndexes(d *db.Database) {
	for i := range sp.ops {
		if op := &sp.ops[i]; op.kind == opProbe {
			d.EnsureIndex(op.pred, op.cols)
		}
	}
}

// lowerRule compiles r (body already in evaluation order) to a pipeline
// plan in one pass over its atoms. Slots are numbered by first occurrence,
// after vars: a non-nil vars claims the leading slots in its order, so
// reorderings of one rule lowered with the same vars share a slot numbering.
// The first nBound of them are bound before the plan runs — the caller fills
// them in the frame — so their first occurrence keys a probe like any later
// one instead of assigning. scanFirst lowers the first atom as a scan whatever
// constants it holds, which is what a delta-led plan needs of its lead.
func lowerRule(r ast.Rule, vars []string, nBound int, scanFirst bool) *streamPlan {
	sp := &streamPlan{vars: slices.Clip(vars), ops: make([]streamOp, 0, len(r.Body))}
	slots := make(map[string]int, len(vars))
	bound := make(map[string]bool, len(vars))
	for i, v := range vars {
		slots[v], bound[v] = i, i < nBound
	}
	slotOf := func(v string) int {
		s, ok := slots[v]
		if !ok {
			s = len(slots)
			slots[v] = s
			sp.vars = append(sp.vars, v)
		}
		return s
	}
	// The operators' key recipes and actions are carved from three backing
	// arrays (each column of each atom lands in exactly one of them), so a
	// lowering costs a handful of allocations however long the body.
	n := 0
	for _, a := range r.Body {
		n += len(a.Args)
	}
	ints, consts, acts := make([]int, 2*n), make([]ast.Const, n), make([]argAct, n)
	for bi, a := range r.Body {
		k := len(a.Args)
		op := streamOp{pred: a.Pred, arity: k, cols: ints[:0:k], keySrc: ints[k : k : 2*k], keyConst: consts[:0:k], acts: acts[:0:k]}
		ints, consts, acts = ints[2*k:], consts[k:], acts[k:]
		for i, t := range a.Args {
			switch {
			case !t.IsVar && scanFirst && bi == 0:
				op.keyConst = append(op.keyConst, t.Val)
				op.acts = append(op.acts, argAct{col: i, slot: -len(op.keyConst), check: true})
			case !t.IsVar:
				op.cols = append(op.cols, i)
				op.keySrc = append(op.keySrc, -1)
				op.keyConst = append(op.keyConst, t.Val)
			case bound[t.Name]:
				op.cols = append(op.cols, i)
				op.keySrc = append(op.keySrc, slotOf(t.Name))
				op.keyConst = append(op.keyConst, 0)
			default:
				// First occurrence in this atom assigns; repeats check.
				s := slotOf(t.Name)
				check := slices.ContainsFunc(op.acts, func(act argAct) bool { return act.slot == s })
				op.acts = append(op.acts, argAct{col: i, slot: s, check: check})
			}
		}
		switch len(op.cols) {
		case 0:
			op.kind = opScan
		case op.arity:
			op.kind = opLookup
		default:
			op.kind = opProbe
		}
		a.CollectVars(bound)
		sp.ops = append(sp.ops, op)
		sp.arity = max(sp.arity, op.arity)
	}
	// Body first, so every variable of the negated literals and the head is
	// already slotted (range restriction guarantees it appears there).
	lower := func(a ast.Atom) compiledAtom {
		ca := compiledAtom{pred: a.Pred, args: make([]int, len(a.Args)), consts: make([]ast.Const, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar {
				ca.args[i] = slotOf(t.Name)
			} else {
				ca.args[i], ca.consts[i] = -1, t.Val
			}
		}
		sp.arity = max(sp.arity, len(a.Args))
		return ca
	}
	for _, a := range r.NegBody {
		sp.neg = append(sp.neg, lower(a))
	}
	sp.head = lower(r.Head)
	return sp
}

// span is the round windows of one rule application, as data. A full
// application (led nil: first rounds, one-step passes, conjunctions) lets
// every operator read rounds [0, max]. A delta variant runs a plan led by its
// delta atom — led is the plan's join order, led[p] the source body index of
// the atom at position p — and aims position 0 at the rounds [min, max], the
// atoms that precede the lead in the source body at strictly older facts and
// the rest at anything up to max: every new combination has a unique least
// delta atom, so nothing is derived twice, and only position 0 ever has a
// lower bound. min == max is the ordinary semi-naive round; a wider delta is
// the first round of a maintenance batch. A non-nil ids makes a change-set
// span: operator 0 scans the ids of lead — a few changed tuples of a
// relation the caller holds — instead of d, and the window applies to the
// later operators only (view maintenance runs rule variants led by the
// changed atom under full windows this way; proof read-back runs the
// head-led variant over one fact under the rounds below it). A plan run
// under one is lowered with its operator 0 a scan (lowerRule's scanFirst).
type span struct {
	led      []int
	min, max int32
	lead     *db.Relation
	ids      []int32
}

func fullSpan(maxRound int32) span { return span{max: maxRound} }

func (s span) window(pos int) db.RoundWindow {
	switch {
	case s.led == nil || s.led[pos] > s.led[0]:
		return db.RoundWindow{Min: 0, Max: s.max}
	case pos == 0:
		return db.RoundWindow{Min: s.min, Max: s.max}
	default:
		return db.RoundWindow{Min: 0, Max: s.min - 1}
	}
}

// idRange resolves a round window to the id-range [lo, hi) it admits. Round
// stamps are non-decreasing with insertion order, so a window is always a
// contiguous range; tuples inserted mid-pass carry the current round, beyond
// every window, so bounds captured once stay exact for the whole pass.
func idRange(rel *db.Relation, w db.RoundWindow) (lo, hi int) {
	if w.Min > 0 {
		lo = rel.LenAt(w.Min - 1)
	}
	return lo, rel.LenAt(w.Max)
}

// streamState is the reusable executor state, allocated once per pass and
// shared by every plan in it — the pipeline's entire working set. Per-
// position cursors live here so the backtracking loop is allocation-free.
type streamState struct {
	vals    []ast.Const
	rels    []*db.Relation
	probers []db.Prober
	flat    []bool // probers[i].Flat(): the position's cursor is flats[i], not iters[i]
	flats   []db.FlatIter
	iters   []db.TupleIter
	next    []int   // scan cursor / lookup-consumed flag
	ids     []int32 // a change-set span's ids: operator 0's scan walks them
	cur     []int32 // id of the tuple currently bound at each position
	lo, hi  []int   // the position's window as an id-range; lo > 0 at a delta scan only
	key     []ast.Const
	out     []ast.Const
	fix     fixpointSink
	maint   maintSets // Maintained's id sets
	// cut, set by a sink, skips the rest of operator 0's current tuple: the
	// pipeline goes on with the next tuple at position 0 (a semi-join on the
	// lead).
	cut bool
}

// streamSink receives the pipeline's head emissions. added reports whether
// the fact was new (it feeds Stats.Added); halt aborts the pipeline. Struct
// implementations keep the emit path free of per-pass closure allocations.
type streamSink interface {
	emit(pred string, args []ast.Const) (added, halt bool)
}

// fixpointSink is the sequential emit discipline: poll the context, add to
// the database, test the goal, count down the derived-fact budget. The
// context is polled on every emission — new fact or duplicate — so a pass
// that mostly re-derives known facts is still cut within CtxCheckEvery
// firings of a cancellation.
type fixpointSink struct {
	d         *db.Database
	goal      *ast.GroundAtom
	ctx       context.Context // per-call cancellation; nil = never canceled
	remaining int             // derived-fact budget countdown; -1 = unlimited
	ctxTick   int             // emit counter for the cancellation cadence
	stop      bool
	goalHit   bool
	canceled  bool
}

func (s *fixpointSink) emit(pred string, args []ast.Const) (bool, bool) {
	if s.ctx != nil {
		if s.ctxTick++; s.ctxTick%CtxCheckEvery == 0 && s.ctx.Err() != nil {
			s.canceled = true
			s.stop = true
			return false, true
		}
	}
	if !s.d.AddTuple(pred, args) {
		return false, false
	}
	if s.goal != nil && pred == s.goal.Pred && slices.Equal(args, s.goal.Args) {
		s.goalHit = true
		s.stop = true
	}
	if s.remaining >= 0 {
		s.remaining--
		if s.remaining < 0 {
			s.stop = true
		}
	}
	return true, s.stop
}

// nonrecSink materializes a one-step pass into a separate output database
// (the Section IX Pⁿ operator): derivations never feed back into d.
type nonrecSink struct {
	out *db.Database
}

func (s *nonrecSink) emit(pred string, args []ast.Const) (bool, bool) {
	return s.out.AddTuple(pred, args), false
}

// closedSink decides IsClosed: the first derivation not already in d is a
// counterexample and halts every remaining pipeline.
type closedSink struct {
	d    *db.Database
	open bool
}

func (s *closedSink) emit(pred string, args []ast.Const) (bool, bool) {
	if s.d.HasTuple(pred, args) {
		return false, false
	}
	s.open = true
	return true, true
}

var streamStatePool = sync.Pool{New: func() any { return new(streamState) }}

// getStreamState returns a pooled state, which run grows to each plan it is
// handed; putStreamState recycles it. States carry no values across uses:
// boundness is static, so every slot, cursor, and key cell is written
// before anything reads it, and a pass binds its relations and probers up
// front. Pooling makes a sequential pass allocation-free in the steady
// state.
func getStreamState() *streamState { return streamStatePool.Get().(*streamState) }

// putStreamState drops the state's relation and database pointers (so a
// pooled state does not pin a dead database in memory) and returns it to the
// pool.
func putStreamState(st *streamState) {
	clear(st.rels)
	st.fix, st.ids = fixpointSink{}, nil
	ms := &st.maint
	ms.rem.d, ms.add.d, ms.cand.d, ms.deleted.d, ms.next.d = nil, nil, nil, nil, nil
	streamStatePool.Put(st)
}

// ensure grows the state to fit sp. Oversized slices are harmless: the
// pipeline addresses them by operator position and reslices keys to the
// operator's own width.
func (st *streamState) ensure(sp *streamPlan) {
	nOps := len(sp.ops)
	if len(st.vals) < len(sp.vars) {
		st.vals = make([]ast.Const, len(sp.vars))
	}
	if len(st.rels) < nOps {
		st.rels = make([]*db.Relation, nOps)
		st.probers = make([]db.Prober, nOps)
		st.flat = make([]bool, nOps)
		st.flats = make([]db.FlatIter, nOps)
		st.iters = make([]db.TupleIter, nOps)
		st.next = make([]int, nOps)
		st.cur = make([]int32, nOps)
		st.lo = make([]int, nOps)
		st.hi = make([]int, nOps)
	}
	if len(st.key) < sp.arity {
		st.key = make([]ast.Const, sp.arity)
		st.out = make([]ast.Const, sp.arity)
	}
}

// buildKey grounds the operator's probe key into dst from constants and the
// slot frame.
func (op *streamOp) buildKey(dst []ast.Const, vals []ast.Const) []ast.Const {
	key := dst[:len(op.keySrc)]
	for j, s := range op.keySrc {
		if s < 0 {
			key[j] = op.keyConst[j]
		} else {
			key[j] = vals[s]
		}
	}
	return key
}

// run drives the pipeline against d with each operator confined to its
// window of win (operator 0 scans win.ids of win.lead instead when the span
// has them), handing every head instantiation to sink; it reports false
// when the sink halted the pass. Windows are resolved to id-ranges once, up
// front: a scan walks [lo, hi), a probe binds its index at the window's upper
// round, a lookup checks its id is below hi (only a delta-led plan's scan has
// a lower bound). An operator whose window admits nothing ends the run before any enumeration,
// so a delta variant over an empty delta costs a few LenAt calls.
func (sp *streamPlan) run(d *db.Database, win span, st *streamState, stats *Stats, sink streamSink) bool {
	st.ensure(sp)
	st.cut, st.ids = false, win.ids
	nOps := len(sp.ops)
	for i := range sp.ops {
		op := &sp.ops[i]
		rel, w, lo, hi := d.Relation(op.pred), win.window(i), 0, len(win.ids)
		if i == 0 && win.ids != nil {
			rel = win.lead
		} else if rel != nil {
			lo, hi = idRange(rel, w)
		}
		if rel == nil || rel.Arity() != op.arity || lo >= hi {
			return true // this body atom can never match
		}
		st.rels[i], st.lo[i], st.hi[i] = rel, lo, hi
		if op.kind == opProbe {
			st.probers[i] = rel.Prober(op.cols, w.Max)
			st.flat[i] = st.probers[i].Flat()
		}
	}
	if nOps == 0 {
		return sp.fireRow(d, st, stats, sink)
	}
	sp.open(0, st)
	pos := 0
	for {
		if !sp.advance(pos, st, stats) {
			pos--
			if pos < 0 {
				return true
			}
			continue
		}
		if pos == nOps-1 {
			if !sp.fireRow(d, st, stats, sink) {
				return false
			}
			if st.cut {
				st.cut, pos = false, 0
			}
			continue
		}
		pos++
		sp.open(pos, st)
	}
}

// open resets position pos's cursor for the bindings currently in the frame.
func (sp *streamPlan) open(pos int, st *streamState) {
	op := &sp.ops[pos]
	switch op.kind {
	case opScan:
		st.next[pos] = st.lo[pos]
	case opLookup:
		st.next[pos] = 0
	case opProbe:
		if key := op.buildKey(st.key, st.vals); st.flat[pos] {
			st.flats[pos] = st.probers[pos].SeekFlat(key)
		} else {
			st.iters[pos] = st.probers[pos].Seek(key)
		}
	}
}

// advance pulls the next candidate at pos that lies in the position's
// id-range, is alive (a scan skips dead ids itself; lookups and probes only
// ever return live ones) and passes the operator's selection actions,
// binding its free columns into the frame.
// Slots are never unbound: boundness is static, so a stale value is simply
// overwritten by the next candidate before anything downstream reads it.
func (sp *streamPlan) advance(pos int, st *streamState, stats *Stats) bool {
	op := &sp.ops[pos]
	rel := st.rels[pos]
	for {
		var id int
		switch op.kind {
		case opScan:
			if st.next[pos] >= st.hi[pos] {
				return false
			}
			id = st.next[pos]
			st.next[pos]++
			if pos == 0 && st.ids != nil {
				id = int(st.ids[id])
			}
			if !rel.Alive(id) {
				continue
			}
		case opLookup:
			if st.next[pos] != 0 {
				return false // the single probe was consumed
			}
			st.next[pos] = 1
			tid, ok := rel.LookupID(op.buildKey(st.key, st.vals))
			if !ok || int(tid) >= st.hi[pos] {
				return false
			}
			id = int(tid)
		case opProbe:
			// The prober's limit is the window's hi; chains run oldest first.
			var tid int32
			var ok bool
			if st.flat[pos] {
				tid, ok = st.flats[pos].Next()
			} else {
				tid, ok = st.iters[pos].Next()
			}
			if !ok {
				return false
			}
			id = int(tid)
		}
		st.cur[pos] = int32(id)
		tuple := rel.Tuple(id)
		ok := true
		for _, act := range op.acts {
			switch {
			case !act.check:
				st.vals[act.slot] = tuple[act.col]
			case act.slot < 0:
				ok = op.keyConst[^act.slot] == tuple[act.col]
			default:
				ok = st.vals[act.slot] == tuple[act.col]
			}
			if !ok {
				break
			}
		}
		if ok {
			stats.BindingsPipelined++
			return true
		}
	}
}

// fireRow completes one full body instantiation: negated literals are
// absence-checked against the (complete, lower-unit) database, the head
// is grounded from the frame, and the fact is emitted. Returns false when
// the sink halts the pipeline.
func (sp *streamPlan) fireRow(d *db.Database, st *streamState, stats *Stats, sink streamSink) bool {
	for i := range sp.neg {
		n := &sp.neg[i]
		if d.HasTuple(n.pred, n.ground(st.out, st.vals)) {
			return true
		}
	}
	stats.Firings++
	added, halt := sink.emit(sp.head.pred, sp.head.ground(st.out, st.vals))
	if added {
		stats.Added++
	}
	return !halt
}

// ground instantiates the atom into dst from its constants and the frame.
func (a *compiledAtom) ground(dst, vals []ast.Const) []ast.Const {
	args := dst[:len(a.args)]
	for j, s := range a.args {
		if s < 0 {
			args[j] = a.consts[j]
		} else {
			args[j] = vals[s]
		}
	}
	return args
}
