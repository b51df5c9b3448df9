package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
)

// Fact-level incremental view maintenance: a Maintained view keeps
// out = P(input) up to date under mixed assert/retract batches without
// re-evaluating from scratch.
//
// One algorithm maintains every schedule unit: DRed (delete-rederive). A head
// fact becomes a candidate once it lost its place in the input or a
// derivation of it (against the old frozen output) lost a support — a
// removed positive premise, an added negated fact or a fact an earlier pass
// deleted — and is over-deleted unless it is an input fact or keeps a
// supporting firing (supported, in dredUnit). The over-deleted facts the
// surviving view derives in one step are restored, and the ordinary
// semi-naive insertion loop closes over the asserted side.
//
// How much of that runs follows from the unit's shape, the planner's
// streamable flag:
//
//   - A recursive unit reads its own heads. A firing supports a fact only if
//     the round stamps certify it: every premise survives and is stamped
//     strictly below the fact ("Stamps" below). Over-deletion repeats over
//     each pass's deletions until a pass deletes nothing; then restore runs.
//   - A non-recursive unit reads none of its heads, so every premise comes
//     from a lower unit that is already final. Any firing valid in the new
//     state supports the fact: no stamp walk. The unit's deletions are no
//     premise of its own firings: over-deletion is one pass. A deleted fact
//     has no firing valid in the new state: nothing is restored. The only
//     firings that can bring it back are those a removed negated fact
//     enabled, and staging finds them. Staging also runs the variants led by
//     the lower additions, so it is the unit's whole insertion side: there
//     is no insertion loop.
//
// Every enumeration above is the operator pipeline (stream.go) running an
// ordinary rule variant under a change-set span: operator 0 scans a small
// set of changed facts, the rest of the body and every negated literal read
// one database. A firing valid in that database that touches the change set
// is found by the variant led by each changed atom it uses; every sink
// records heads in a set, or marks them by id, so a firing found twice counts
// once. The variants are lowered once per schedule unit (maintPlan) and
// shared by every view of the plan; the head-led ones the support check and
// restore run are ordered per Apply from the view's live sizes, each order
// lowered once per plan (ruleVariants.sizedRederive). Sinks only buffer, and
// what they buffer is committed after the run, so no pipeline reads a
// database being written.
//
// Units run in producer-first order, and each is handed the exact net diff
// of everything below it, which is what makes stratified negation work: an
// assertion below can retract facts above (candidates driven by the negated
// atom's delta) and a retraction below can assert facts above (staged
// firings driven by the negated atom's removal).
//
// Stamps: every fact of a recursive unit that is not an input fact has a
// firing, valid in the output, whose premises of the unit's own predicates
// are stamped strictly below it — what makes the support check sound, by
// induction on stamps. Fixpoint and insertion rounds stamp a fact above all
// its firing read, restored facts are committed a round above the view they
// were rederived from and staged facts a round above those; a survivor keeps
// its stamp, whatever comes back gets a fresh one. A premise from a unit below
// may be newer than the fact (a later batch brought it back): the check bounds
// every premise, so the fact is then deleted and returns restamped.
//
// Determinism: retraction-side work is sequential, and every batch of
// staged facts is committed in canonical (predicate, arguments) order; the
// insertion side reuses the shared round executor (rounds.go) through
// insertLoop, so it fires in the evaluator's order.
//
// A Maintained view is not safe for concurrent use; callers serialize
// Apply (core.Session wraps views behind its own lock). A failed Apply
// (context cancellation) leaves the view on its previous snapshot.

// Delta is one batch of fact-level input mutations, set-semantics:
// retracting an absent fact and asserting a present one are no-ops, and a
// fact both retracted and asserted in one batch nets to "present". Only
// input (extensional) facts can be retracted; retracting a derived-only
// fact is a no-op — the derivations keep it in the view.
type Delta struct {
	Assert  []ast.GroundAtom
	Retract []ast.GroundAtom
}

// Empty reports whether the delta carries no mutations.
func (d Delta) Empty() bool { return len(d.Assert) == 0 && len(d.Retract) == 0 }

// Net reduces the batch to its net effect on prev, the database it is about
// to be applied to: each fact at most once (in batch order), an assert
// winning over a retract of the same fact, asserts restricted to absent
// facts and retracts to present ones. Applying the result — in either order
// of its halves — is applying the batch.
//
// The batch must have passed CheckArities against prev. That check lets a
// retract of a predicate prev does not have disagree in arity with an assert
// introducing it (retracting from an absent relation is a no-op whatever the
// arity), so a retract only enters the scratch set once prev is known to
// hold it — at which point its arity is prev's, and so is every assert's.
func (d Delta) Net(prev *db.Database) Delta { return d.net(prev, db.New()) }

// net is Net deciding each fact once through seen, an empty scratch set.
func (d Delta) net(prev, seen *db.Database) Delta {
	var net Delta
	for _, g := range d.Assert {
		if seen.Add(g) && !prev.Has(g) {
			net.Assert = append(net.Assert, g)
		}
	}
	for _, g := range d.Retract {
		if prev.Has(g) && seen.Add(g) {
			net.Retract = append(net.Retract, g)
		}
	}
	return net
}

// compareFacts is the canonical (predicate, arguments) order.
func compareFacts(a, b ast.GroundAtom) int {
	if c := strings.Compare(a.Pred, b.Pred); c != 0 {
		return c
	}
	return slices.Compare(a.Args, b.Args)
}

// Diff is the exact net output change of one Apply: facts that entered and
// left the materialized view, each in canonical (predicate, arguments)
// order.
type Diff struct {
	Added   []ast.GroundAtom
	Removed []ast.GroundAtom
}

// Maintained is a materialized output kept incrementally consistent with
// its input database under Apply batches.
type Maintained struct {
	in    *db.Snapshot // current input EDB
	snap  *db.Snapshot // current maintained output P(input)
	units []maintUnit
	owner map[string]int  // head predicate → unit index
	sets  [3]*db.Database // scratch
}

// scratch returns the i-th of the working sets the view keeps from batch to
// batch (it has one writer), emptied — on the way in, so a cancelled Apply
// leaves nothing to clean up.
func (m *Maintained) scratch(i int) *db.Database {
	if m.sets[i] == nil {
		m.sets[i] = db.New()
	}
	m.sets[i].Reset()
	return m.sets[i]
}

// flags returns, per head mp.heads[h], a cleared flag per id of scratch set
// d's relation of it (d.Len(): a scratch set has no dead ids), kept in the
// pooled state, not on the view: a pass marks by id what it would probe.
func (st *streamState) flags(mp *maintPlan, d *db.Database) [][]bool {
	st.marks = append(st.marks, make([][]bool, max(0, len(mp.heads)-len(st.marks)))...)
	for h := range mp.heads {
		st.marks[h] = append(st.marks[h][:0], make([]bool, d.Len())...)
	}
	return st.marks
}

// maintUnit is one schedule unit of a view: its head predicates are
// u.dynamic.
type maintUnit struct {
	u    *unit
	plan *maintPlan
}

// maintPlan is a unit's rules lowered for view maintenance, built once per
// unit and immutable afterwards.
type maintPlan struct {
	heads []string // the unit's head predicates, sorted: what flags index
	rules []ruleVariants
}

// ruleVariants is one rule reordered to start from each atom a change can
// enter through. The variants share one slot numbering — the rule's
// variables in body order — so the first nVars slots of the frame are the
// firing whichever variant found it (what Prepared.Firings reports).
type ruleVariants struct {
	nVars int           // the rule's variables
	pos   []*streamPlan // pos[i]: body atom i leads
	neg   []*streamPlan // neg[k]: negated literal k leads, as a positive atom
	// rederive leads with the rule's own head: over a set of deleted facts
	// it derives the ones the rule still supports. It is in the static join
	// order, on the shared slot numbering: the one proof read-back
	// (Prepared.Firings) runs, so the proofs it reports do not depend on the
	// sizes a view had when it last changed.
	rederive *streamPlan
	// sized is the same head-led rule (its body is the head, then the rule's
	// body) memoized per join order: the support check and restore run it in
	// the order a view's live sizes induce (sizedRederive), so the selective
	// atom is probed first.
	sized *ruleMemo
}

// sizedRederive returns the rule's rederive variant in the join order that
// sizeOf induces, lowering it on the order's first use. Every view of the
// plan shares the memo; its lock makes that safe.
func (rv *ruleVariants) sizedRederive(sizeOf func(pred string) int) *streamPlan {
	return rv.sized.under(orderPermSized(rv.sized.rule.Body, 0, sizeOf), false).plan
}

// maintPlan returns the unit's maintenance plan, lowering it on first use;
// every view of every plan holding the unit shares it.
func (u *unit) maintPlan() *maintPlan {
	u.maintOnce.Do(func() {
		mp := &maintPlan{rules: make([]ruleVariants, len(u.rules))}
		for pred := range u.dynamic {
			mp.heads = append(mp.heads, pred)
		}
		slices.Sort(mp.heads)
		for ri, m := range u.rules {
			r := m.rule
			vars := ast.VarsOfAtoms(r.Body)
			// ledBy is r over atoms with atom lead as operator 0 and the rest in
			// the greedy join order under its bindings (orderPermSized, the
			// order a delta variant runs); negated literals stay negated.
			ledBy := func(atoms []ast.Atom, lead int) *streamPlan {
				body := make([]ast.Atom, 0, len(atoms))
				for _, i := range orderPermSized(atoms, lead, nil) {
					body = append(body, atoms[i])
				}
				return lowerRule(ast.Rule{Head: r.Head, Body: body, NegBody: r.NegBody}, vars, 0, false)
			}
			ahead := func(a ast.Atom) []ast.Atom { return append([]ast.Atom{a}, r.Body...) }
			rv := ruleVariants{nVars: len(vars), rederive: ledBy(ahead(r.Head), 0),
				sized: &ruleMemo{rule: ast.Rule{Head: r.Head, Body: ahead(r.Head), NegBody: r.NegBody}}}
			for i := range r.Body {
				rv.pos = append(rv.pos, ledBy(r.Body, i))
			}
			for _, a := range r.NegBody {
				rv.neg = append(rv.neg, ledBy(ahead(a), 0))
			}
			mp.rules[ri] = rv
		}
		u.maint = mp
	})
	return u.maint
}

// sinkFunc adapts a buffering callback to the pipeline's sink: maintenance
// sinks record heads in scratch sets the pipeline does not read, report no
// additions and never halt.
type sinkFunc func(pred string, args []ast.Const)

func (f sinkFunc) emit(pred string, args []ast.Const) (bool, bool) {
	f(pred, args)
	return false, false
}

// changed hands sink, at least once each, the heads of the rule firings
// valid against d that touch the change sets: those using a posDelta fact
// for a positive body atom, and those whose negated literal grounds to a
// negDelta fact (absent from d, so the negation holds there). Either set may
// be nil.
func (mp *maintPlan) changed(d, posDelta, negDelta *db.Database, st *streamState, stats *Stats, sink sinkFunc) {
	for ri := range mp.rules {
		rv := &mp.rules[ri]
		if posDelta != nil && posDelta.Len() > 0 {
			for _, sp := range rv.pos {
				sp.run(d, changeSpan(posDelta, d.Round()), st, stats, sink)
			}
		}
		if negDelta != nil && negDelta.Len() > 0 {
			for _, sp := range rv.neg {
				sp.run(d, changeSpan(negDelta, d.Round()), st, stats, sink)
			}
		}
	}
}

// Materialize evaluates the prepared program on input and wraps the result
// as a maintained view. The input is not modified; the view keeps private
// copy-on-write snapshots of both input and output.
func (pr *Prepared) Materialize(ctx context.Context, input *db.Database) (*Maintained, Stats, error) {
	out, _, stats, err := pr.Run(ctx, input, nil, 0)
	if err != nil {
		return nil, stats, err
	}
	m := &Maintained{owner: make(map[string]int)}
	for ui, u := range pr.units {
		for pred := range u.dynamic {
			m.owner[pred] = ui
		}
		m.units = append(m.units, maintUnit{u: u, plan: u.maintPlan()})
	}
	m.in = input.Clone().Freeze()
	m.snap = out.Freeze()
	return m, stats, nil
}

// Output returns the current materialized output as a frozen database.
// Callers must not mutate it; it stays valid (as that version) across later
// Applies.
func (m *Maintained) Output() *db.Database { return m.snap.DB() }

// Input returns the view's current input EDB as a frozen database.
func (m *Maintained) Input() *db.Database { return m.in.DB() }

// Apply absorbs one mutation batch: the input gains delta.Assert and loses
// delta.Retract, the materialized output is maintained in place, and the
// exact net output diff is returned in canonical order. On error (context
// cancellation) the view is left on its previous input/output snapshots.
func (m *Maintained) Apply(ctx context.Context, delta Delta) (Diff, Stats, error) {
	var stats Stats
	stats.Applies++
	if err := CtxErr(ctx); err != nil {
		return Diff{}, stats, err
	}
	old := m.snap.DB()
	if err := delta.CheckArities(m.in.DB(), old); err != nil {
		return Diff{}, stats, err
	}

	net := delta.net(m.in.DB(), m.scratch(0))
	if net.Empty() {
		return Diff{}, stats, nil
	}
	// Canonical order: the batch's own order must not show in the view.
	asserts, retracts := net.Assert, net.Retract
	slices.SortFunc(asserts, compareFacts)
	slices.SortFunc(retracts, compareFacts)

	input, cur := m.in.Thaw(), m.snap.Thaw()
	deltaMin := cur.BeginRound()
	addedDB, remDB := db.New(), db.New()
	// Extensional-only predicates (no unit owns them) pass through: their
	// output facts are exactly their input facts.
	for _, g := range retracts {
		input.Remove(g)
		if _, owned := m.owner[g.Pred]; !owned && cur.Remove(g) {
			remDB.Add(g)
		}
	}
	for _, g := range asserts {
		input.Add(g)
		if _, owned := m.owner[g.Pred]; !owned && cur.Add(g) {
			addedDB.Add(g)
		}
	}

	st := getStreamState()
	defer putStreamState(st)
	for i := range m.units {
		if err := m.dredUnit(ctx, &m.units[i], st, old, cur, input, asserts, retracts, addedDB, remDB, deltaMin, &stats); err != nil {
			return Diff{}, stats, err
		}
	}

	// The dirty-set freeze only seals relations the batch actually wrote;
	// count both sides so maintenance stats prove how much re-freeze work the
	// write-epoch check skipped for untouched relations, and how many tuples
	// the written ones cost in copies (copy-on-write tails, flattens).
	stats.RelationsFrozen += input.DirtyRelations() + cur.DirtyRelations()
	stats.FreezeSkipped += (input.RelationCount() - input.DirtyRelations()) +
		(cur.RelationCount() - cur.DirtyRelations())
	m.in = input.Freeze()
	m.snap = cur.Freeze()
	stats.TuplesCopied += input.TuplesCopied() + cur.TuplesCopied()
	return Diff{Added: addedDB.SortedFacts(), Removed: remDB.SortedFacts()}, stats, nil
}

// ErrArity is wrapped by the errors that reject a fact or an input relation
// whose arity contradicts the one its predicate already has — in a database,
// in the program evaluated over it, or earlier in the same batch. The store
// panics on such a tuple (db.AddTuple), so whatever takes facts from outside
// the process checks before it writes.
var ErrArity = errors.New("eval: arity mismatch")

// CheckArities rejects a batch holding a fact whose arity contradicts the
// relation of its predicate in the first of dbs that has one or, for a
// predicate none has yet, an earlier fact of the same half of the batch. The
// halves are not checked against each other: a retract of a predicate no
// database has is a no-op at any arity, and Net drops it before it can meet
// an assert of the same predicate.
func (d Delta) CheckArities(dbs ...*db.Database) error {
	for _, half := range [2][]ast.GroundAtom{d.Assert, d.Retract} {
		var fresh map[string]int // arities of the predicates the half introduces
		for _, g := range half {
			want, known := fresh[g.Pred]
			for i := 0; i < len(dbs) && !known; i++ {
				if rel := dbs[i].Relation(g.Pred); rel != nil {
					want, known = rel.Arity(), true
				}
			}
			switch {
			case !known:
				if fresh == nil {
					fresh = make(map[string]int)
				}
				fresh[g.Pred] = len(g.Args)
			case want != len(g.Args):
				return fmt.Errorf("%w: %s has arity %d, relation %s has arity %d", ErrArity, g, len(g.Args), g.Pred, want)
			}
		}
	}
	return nil
}

// dredUnit maintains one unit by delete-rederive. old is the pre-Apply output
// (frozen), cur the in-progress successor with every lower unit already
// final; addedDB/remDB hold the exact net diff of the units below (plus the
// extensional passthrough) and gain this unit's net diff before returning.
func (m *Maintained) dredUnit(ctx context.Context, mu *maintUnit, st *streamState, old, cur, input *db.Database, asserts, retracts []ast.GroundAtom, addedDB, remDB *db.Database, deltaMin int32, stats *Stats) error {
	heads, mp, nonrec := mu.u.dynamic, mu.plan, mu.u.streamable
	// Over-delete: a head fact is a candidate once it lost its place in the
	// input or a derivation (against the old output) lost a support — a removed
	// positive atom, an added negated atom (lower additions, first pass only) or
	// a fact an earlier pass deleted — and is deleted unless it is an input fact
	// or supported. Propagation joins the frozen old output along every firing:
	// a survivor is checked again the pass after a premise certifying it went.
	// The first pass's frontier is the lower units' deletions, read in place,
	// a later pass's what the pass before deleted (next). A non-recursive unit's
	// deletions are no premise of its firings: its first pass is its last.
	deleted, next, cand := m.scratch(0), m.scratch(1), m.scratch(2)
	for _, g := range retracts {
		if heads[g.Pred] {
			cand.Add(g)
		}
	}
	// rederive is rule ri's rederive variant to run over src, nil when src
	// holds no fact of the rule's head: in the order the view's live sizes
	// induce, chosen at its first use in this Apply. The head binds every
	// column, so the order decides which body atom its bindings probe first.
	var sized []*streamPlan
	rederive := func(ri int, src *db.Database) *streamPlan {
		rv := &mp.rules[ri]
		if rel := src.Relation(rv.sized.rule.Head.Pred); rel == nil || rel.Live() == 0 {
			return nil
		}
		if sized == nil {
			sized = make([]*streamPlan, len(mp.rules))
		}
		if sized[ri] == nil {
			sized[ri] = rv.sizedRederive(mu.u.liveSizes(cur, true))
		}
		return sized[ri]
	}
	// supported is the check, the sink of a rederive variant sp run over the
	// candidates: it marks in ok, by the id operator 0 scans, the heads with a
	// firing over facts of cur that was valid in old too and, in a recursive
	// unit, whose premises are all stamped strictly below the head's own stamp.
	// A non-recursive unit's premises are final, so any such firing is
	// well-founded. A firing a removed negated fact has only now enabled is not
	// re-checked when a premise of it goes, so it is left for staging to find.
	var sp *streamPlan
	var ok []bool // the marks of sp's head
	supported := sinkFunc(func(pred string, args []ast.Const) {
		if !nonrec {
			rel := cur.Relation(pred)
			id, alive := rel.LookupID(args)
			for pos := 1; pos < len(sp.ops); pos++ {
				if !alive || st.rels[pos].RoundOf(int(st.cur[pos])) >= rel.RoundOf(int(id)) {
					return
				}
			}
		}
		for i := range sp.neg {
			if n := &sp.neg[i]; old.HasTuple(n.pred, n.ground(st.key, st.vals)) {
				return
			}
		}
		ok[st.cur[0]] = true
		st.cut = true // one supporting firing is enough
	})
	for frontier, negDelta := remDB, addedDB; ; frontier, negDelta = next, nil {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		mp.changed(old, frontier, negDelta, st, stats, func(pred string, args []ast.Const) {
			cand.AddTuple(pred, args)
		})
		marks := st.flags(mp, cand)
		for ri := range mp.rules {
			if sp = rederive(ri, cand); sp != nil {
				ok = marks[slices.Index(mp.heads, sp.head.pred)]
				sp.run(cur, changeSpan(cand, cur.Round()), st, stats, supported)
			}
		}
		next.Reset()
		for h, pred := range mp.heads {
			rel, in := cand.Relation(pred), input.Relation(pred)
			for i := 0; rel != nil && i < rel.Len(); i++ {
				if marks[h][i] {
					continue
				}
				t := rel.Tuple(i)
				if _, kept := in.LookupID(t); !kept && cur.RemoveTuple(pred, t) {
					deleted.AddTuple(pred, t)
					if !nonrec {
						next.AddTuple(pred, t)
					}
				}
			}
		}
		if next.Len() == 0 {
			break
		}
		cand.Reset()
	}

	// Restore the over-deleted facts the surviving view derives in one step
	// (each rule's rederive variant, one pass over the deleted set). The rest
	// come back in the insertion loop below: restored facts carry fresh round
	// stamps, so the delta windows reach them. A non-recursive unit deleted
	// only facts with no firing in cur: it has none to restore.
	stats.Overdeleted += deleted.Len()
	commit := func(pred string, rel *db.Relation, id int32) { cur.AddTuple(pred, rel.Tuple(int(id))) }
	if !nonrec {
		restored := m.scratch(1)
		for ri := range mp.rules {
			if rd := rederive(ri, deleted); rd != nil {
				rd.run(cur, changeSpan(deleted, cur.Round()), st, stats, &nonrecSink{out: restored})
			}
		}
		stats.Rederived += restored.Len()
		cur.BeginRound()
		eachSorted(restored, commit)
	}
	cur.BeginRound() // a staged fact may rest on a restored one

	// Insertion side: stage input asserts of this unit's heads and the
	// firings a removed negated fact enabled, then close semi-naively over
	// everything stamped in this Apply — lower-unit additions, restored
	// facts and the staged batch alike — through the shared round executor.
	// A non-recursive unit stages its lower additions' firings too: every new
	// firing of it touches the diff below and none feeds another, so staging
	// is its whole insertion side.
	staged := m.scratch(2)
	for _, g := range asserts {
		if heads[g.Pred] && !cur.Has(g) {
			staged.Add(g)
		}
	}
	var gained *db.Database
	if nonrec {
		gained = addedDB
	}
	mp.changed(cur, gained, remDB, st, stats, func(pred string, args []ast.Const) {
		if !cur.HasTuple(pred, args) {
			staged.AddTuple(pred, args)
		}
	})
	eachSorted(staged, commit)
	if !nonrec {
		if err := insertLoop(ctx, cur, mu.u, deltaMin, stats); err != nil {
			return err
		}
	}

	// Net unit diff: everything stamped in this Apply that the old output
	// lacked entered the view. An over-deleted fact is stamped in this Apply
	// exactly when it came back: the scan marks it back, by its id in
	// deleted, and the over-deleted facts left unmarked left the view.
	back := st.flags(mp, deleted)
	for h, pred := range mp.heads {
		rel, del := cur.Relation(pred), deleted.Relation(pred)
		if rel == nil {
			continue // no fact of pred was ever in the view, so none was deleted
		}
		for i := rel.LenAt(deltaMin - 1); i < rel.Len(); i++ {
			if !rel.Alive(i) {
				continue
			}
			if id, came := del.LookupID(rel.Tuple(i)); came {
				back[h][id] = true
			} else {
				addedDB.AddTuple(pred, rel.Tuple(i))
			}
		}
		for i := 0; del != nil && i < del.Len(); i++ {
			if !back[h][i] {
				remDB.AddTuple(pred, del.Tuple(i))
			}
		}
	}
	return nil
}

// insertLoop is semi-naive insert-only propagation over a database that was
// closed under rules before the facts stamped [deltaMin, d.Round()] arrived:
// every new derivation must use at least one of those facts, so delta
// variants alone are complete. It is Maintained's assert side: the first
// delta spans every round of the current Apply (lower-unit additions,
// DRed-restored facts and staged asserts all carry stamps in that span);
// later rounds are ordinary single-round deltas. Any body atom can match an
// inserted fact (insertions may be extensional), so the delta atom ranges
// over the whole body rather than only the intentional atoms. Each variant
// is the one a fixpoint's delta round runs (roundEnv.deltaVariants): led by
// its delta atom, in an order chosen once per loop from the live sizes, and
// dropped while its delta is empty, so a batch costs what its facts fan out
// to, not a pass over the view, and a round with nothing to propagate skips
// the executor altogether. Rounds run through the shared round executor, so
// cancellation keeps the evaluator's discipline.
func insertLoop(ctx context.Context, d *db.Database, u *unit, deltaMin int32, stats *Stats) error {
	env := &roundEnv{ctx: ctx, d: d, stats: stats, baseLen: d.Len()}
	for {
		prev := d.Round()
		round := d.BeginRound()
		stats.Rounds++
		env.variants = env.deltaVariants(u, true, deltaMin, prev, env.variants[:0])
		if err := env.runRound(env.variants); err != nil {
			return err
		}
		if !anyAddedIn(d, u, round) {
			return nil
		}
		deltaMin = round
	}
}

// eachSorted calls f on every fact of the scratch set d in canonical order,
// predicates by name and a relation's ids sorted against the arena.
func eachSorted(d *db.Database, f func(pred string, rel *db.Relation, id int32)) {
	if d.Len() == 0 {
		return
	}
	var ids []int32
	for _, pred := range d.Preds() {
		rel := d.Relation(pred)
		ids = rel.SortedIDs(ids)
		for _, id := range ids {
			f(pred, rel, id)
		}
	}
}
