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

// Fact-level incremental view maintenance (DESIGN.md §6.7): a Maintained
// view keeps out = P(input) up to date under mixed assert/retract batches.
//
// One algorithm maintains every schedule unit: DRed (delete-rederive). A head
// fact becomes a candidate once it lost its place in the input or a
// derivation of it (against the old frozen output) lost a support — a
// removed positive premise, an added negated fact or a fact an earlier pass
// deleted — and is over-deleted unless it is an input fact or keeps a
// supporting firing. How much of that runs follows from the unit's shape,
// the planner's streamable flag. A recursive unit reads its own heads: a
// firing supports a fact only if the round stamps certify it ("Stamps"
// below), over-deletion repeats over each pass's deletions, the over-deleted
// facts the surviving view derives in one step are restored, and the
// semi-naive insertion loop closes over the asserted side. A non-recursive
// unit's premises come from lower units, already final: any firing valid in
// the new state supports a fact, one pass over-deletes, a deleted fact has no
// firing left to restore it, and staging — the firings a removed negated
// fact enabled or a lower addition leads — is its whole insertion side.
//
// Every enumeration is the operator pipeline (stream.go) running a rule
// variant, lowered once per unit (maintPlan), under a change-set span:
// operator 0 scans ids of a relation the Apply holds (maintSets), the rest
// of the body and every negated literal read one database. Sinks only record
// ids or stage facts, committed after the run, so no pipeline reads a
// database being written. Units run in producer-first order, each handed the
// exact net diff below it, which is what makes stratified negation work.
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
// Determinism: retraction-side work is sequential, every commit is in
// canonical (predicate, arguments) order, and the insertion side is the
// shared round executor (rounds.go), so a view is a function of its batches.
// A Maintained view is not safe for concurrent use; callers serialize Apply
// (core.Session wraps views behind its own lock). A failed Apply (context
// cancellation) leaves the view on its previous snapshot.

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
	in     *db.Snapshot   // current input EDB
	snap   *db.Snapshot   // current maintained output P(input)
	units  []*unit        // the plan's schedule
	owner  map[string]int // head predicate → unit index
	staged *db.Database   // the one scratch set, emptied before each use: Delta.Net's seen set, then staged facts
}

// maintSets are an Apply's change sets, pooled (an idle view holds none):
// the net diff so far (rem: ids in old that left the view, add: ids in cur
// that entered it) and the running unit's candidates (then restored facts),
// marks (supported candidates, then deleted facts that came back) and
// deletions (all, and the last pass's), ids in old — and in cur, until
// Freeze renumbers it: a thawed relation's successor keeps its base's ids.
type maintSets struct {
	rem, add, cand, mark, deleted, next changes
	ids                                 []int32 // a staged relation's ids
}

// changes is a change set: per predicate preds[i], ids of its relation in d.
type changes struct {
	d     *db.Database
	preds []string
	sets  []idSet
}

// reset empties c over d and returns it; a pooled set keeps its room.
func (c *changes) reset(d *db.Database) *changes {
	for i := range c.sets {
		c.sets[i].clear()
	}
	c.d, c.preds, c.sets = d, c.preds[:0], c.sets[:0]
	return c
}

// at returns pred's set, adding it (a pooled set past len(sets) is empty).
func (c *changes) at(pred string) *idSet {
	i := slices.Index(c.preds, pred)
	if i < 0 {
		i, c.preds, c.sets = len(c.preds), append(c.preds, pred), slices.Grow(c.sets, 1)[:len(c.sets)+1]
	}
	return &c.sets[i]
}

// of returns pred's ids.
func (c *changes) of(pred string) []int32 {
	if i := slices.Index(c.preds, pred); i >= 0 {
		return c.sets[i].ids
	}
	return nil
}

// run runs sp, a variant led by a changed atom, over d with operator 0
// scanning the set's ids of that atom's predicate.
func (c *changes) run(sp *streamPlan, d *db.Database, st *streamState, stats *Stats, sink streamSink) {
	if ids := c.of(sp.ops[0].pred); len(ids) > 0 {
		sp.run(d, span{max: d.Round(), lead: c.d.Relation(sp.ops[0].pred), ids: ids}, st, stats, sink)
	}
}

// facts is the set's facts in canonical order: predicates by name and a
// relation's ids sorted against its arena, its arguments in one array.
func (c *changes) facts() []ast.GroundAtom {
	n := 0
	for i := range c.sets {
		n += len(c.sets[i].ids)
	}
	out, preds := make([]ast.GroundAtom, 0, n), slices.Clone(c.preds)
	slices.Sort(preds)
	for _, pred := range preds {
		rel, ids := c.d.Relation(pred), c.of(pred)
		rel.SortIDs(ids)
		args := make([]ast.Const, 0, len(ids)*rel.Arity())
		for _, id := range ids {
			args = append(args, rel.Tuple(int(id))...)
			out = append(out, ast.GroundAtom{Pred: pred, Args: args[len(args)-rel.Arity() : len(args) : len(args)]})
		}
	}
	return out
}

// idSet is a set of ids: in the order they joined, and a bit per id, so a
// repeat costs a bit test, not a hash. clear goes by the ids: a batch pays
// for what it touched, not for the bits a larger one grew.
type idSet struct {
	ids  []int32
	bits []uint64
}

func (s *idSet) add(id int32) {
	w, b := int(id>>6), uint64(1)<<(id&63)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.ids = append(s.ids, id)
	}
}

func (s *idSet) has(id int32) bool {
	return int(id>>6) < len(s.bits) && s.bits[id>>6]&(1<<(id&63)) != 0
}

func (s *idSet) clear() {
	for _, id := range s.ids {
		s.bits[id>>6] = 0
	}
	s.ids = s.ids[:0]
}

// commit adds rel's tuples ids to cur's pred in canonical order.
func commit(cur *db.Database, pred string, rel *db.Relation, ids []int32) {
	rel.SortIDs(ids)
	for _, id := range ids {
		cur.AddTuple(pred, rel.Tuple(int(id)))
	}
}

// maintPlan is a unit's rules lowered for view maintenance, built once per
// unit and immutable afterwards.
type maintPlan struct {
	heads []string // the unit's head predicates, sorted: the order commits run in
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
	return rv.sized.under(orderPermSized(rv.sized.rule.Body, 0, sizeOf), true).plan
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
			// ledBy is r over atoms with atom lead as operator 0, a scan, and the
			// rest in the greedy join order under its bindings (orderPermSized,
			// the order a delta variant runs); negated literals stay negated.
			ledBy := func(atoms []ast.Atom, lead int) *streamPlan {
				body := make([]ast.Atom, 0, len(atoms))
				for _, i := range orderPermSized(atoms, lead, nil) {
					body = append(body, atoms[i])
				}
				return lowerRule(ast.Rule{Head: r.Head, Body: body, NegBody: r.NegBody}, vars, 0, true)
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

// changed hands sink, at least once each, the heads of the rule firings
// valid against d that touch the change sets: those using a pos fact for a
// positive body atom, and those whose negated literal grounds to a neg fact
// (absent from d, so the negation holds there). Either set may be empty.
func (mp *maintPlan) changed(d *db.Database, pos, neg *changes, st *streamState, stats *Stats, sink streamSink) {
	for ri := range mp.rules {
		for _, sp := range mp.rules[ri].pos {
			pos.run(sp, d, st, stats, sink)
		}
		for _, sp := range mp.rules[ri].neg {
			neg.run(sp, d, st, stats, sink)
		}
	}
}

// dred is one unit's run of an Apply and the sink of each of its
// enumerations, what saying which: a unit allocates one sink for all.
type dred struct {
	what             int // candidates, support, restore or stage
	st               *streamState
	ms               *maintSets
	old, cur, staged *db.Database
	nonrec           bool
	sp               *streamPlan // the rederive variant support runs
	mark             *idSet      // what support and restore mark
	pred             string      // the last candidate's predicate and its relation in old
	rel              *db.Relation
}

const (
	candidates = iota // a head, valid in old, is a candidate by its id there
	support           // the support check marks operator 0's fact, the head
	restore           // operator 0's fact, the head, is restored
	stage             // a head cur lacks is staged
)

// emit is the sinks. The support check runs a rederive variant sp over the
// candidates in cur and marks, by the id operator 0 scans, the heads with a
// firing over facts of cur that was valid in old too and, in a recursive
// unit, whose premises are all stamped strictly below the head. A
// non-recursive unit's premises are final, so any such firing is
// well-founded. A firing a removed negated fact has only now enabled is not
// re-checked when a premise of it goes, so it is left for staging to find.
// One supporting firing is enough, and one firing restores a fact: both cut.
func (s *dred) emit(pred string, args []ast.Const) (bool, bool) {
	st, sp := s.st, s.sp
	switch s.what {
	case candidates:
		if pred != s.pred {
			s.pred, s.rel = pred, s.old.Relation(pred)
		}
		if id, ok := s.rel.LookupID(args); ok {
			s.ms.cand.at(pred).add(id)
		}
	case support:
		if !s.nonrec {
			stamp := st.rels[0].RoundOf(int(st.cur[0]))
			for pos := 1; pos < len(sp.ops); pos++ {
				if st.rels[pos].RoundOf(int(st.cur[pos])) >= stamp {
					return false, false
				}
			}
		}
		for i := range sp.neg {
			if n := &sp.neg[i]; s.old.HasTuple(n.pred, n.ground(st.key, st.vals)) {
				return false, false
			}
		}
		fallthrough
	case restore:
		s.mark.add(st.cur[0])
		st.cut = true
	case stage:
		if !s.cur.HasTuple(pred, args) {
			s.staged.AddTuple(pred, args)
		}
	}
	return false, false
}

// Materialize evaluates the prepared program on input and wraps the result
// as a maintained view. The input is not modified; the view keeps private
// copy-on-write snapshots of both input and output.
func (pr *Prepared) Materialize(ctx context.Context, input *db.Database) (*Maintained, Stats, error) {
	out, _, stats, err := pr.Run(ctx, input, nil, 0)
	if err != nil {
		return nil, stats, err
	}
	m := &Maintained{units: pr.units, owner: make(map[string]int), staged: db.New()}
	for ui, u := range pr.units {
		for pred := range u.dynamic {
			m.owner[pred] = ui
		}
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

	m.staged.Reset()
	net := delta.net(m.in.DB(), m.staged)
	if net.Empty() {
		return Diff{}, stats, nil
	}
	// Canonical order: the batch's own order must not show in the view.
	asserts, retracts := net.Assert, net.Retract
	slices.SortFunc(asserts, compareFacts)
	slices.SortFunc(retracts, compareFacts)

	input, cur := m.in.Thaw(), m.snap.Thaw()
	deltaMin := cur.BeginRound()
	st := getStreamState()
	defer putStreamState(st)
	rem, add := st.maint.rem.reset(old), st.maint.add.reset(cur)
	// Extensional-only predicates (no unit owns them) pass through: their
	// output facts are exactly their input facts.
	for _, g := range retracts {
		input.Remove(g)
		if _, owned := m.owner[g.Pred]; !owned {
			if id, ok := old.Relation(g.Pred).LookupID(g.Args); ok && cur.RemoveID(g.Pred, id) {
				rem.at(g.Pred).add(id)
			}
		}
	}
	for _, g := range asserts {
		input.Add(g)
		if _, owned := m.owner[g.Pred]; !owned && cur.Add(g) {
			add.at(g.Pred).add(int32(cur.Relation(g.Pred).Len() - 1))
		}
	}

	for _, u := range m.units {
		if err := m.dredUnit(ctx, u, st, old, cur, input, asserts, retracts, deltaMin, &stats); err != nil {
			return Diff{}, stats, err
		}
	}
	out := Diff{Added: add.facts(), Removed: rem.facts()} // before Freeze renumbers cur

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
	return out, stats, nil
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
// final; st.maint's rem and add hold the exact net diff of the units below
// (plus the extensional passthrough) and gain this unit's before returning.
func (m *Maintained) dredUnit(ctx context.Context, u *unit, st *streamState, old, cur, input *db.Database, asserts, retracts []ast.GroundAtom, deltaMin int32, stats *Stats) error {
	mp, nonrec, ms := u.maintPlan(), u.streamable, &st.maint
	ms.cand.reset(cur)
	ms.mark.reset(nil)
	ms.deleted.reset(old)
	s := &dred{what: candidates, st: st, ms: ms, old: old, cur: cur, staged: m.staged, nonrec: nonrec}
	// Over-delete: the candidates are the retracted heads and the heads of the
	// firings of old that lost a support — a lower unit's deletion or addition
	// (under negation) in the first pass, what the pass before deleted (next)
	// in a later one, so a survivor is checked again the pass after a premise
	// certifying it went — and each is deleted unless it is an input fact or
	// supported. A non-recursive unit's first pass is its last.
	for _, g := range retracts {
		if u.dynamic[g.Pred] {
			s.emit(g.Pred, g.Args)
		}
	}
	// sized is rule ri's rederive variant in the order the view's live sizes
	// induce, chosen at its first use in this Apply. The head binds every
	// column, so the order decides which body atom its bindings probe first.
	var plans []*streamPlan
	sized := func(ri int) *streamPlan {
		if plans == nil {
			plans = make([]*streamPlan, len(mp.rules))
		}
		if plans[ri] == nil {
			plans[ri] = mp.rules[ri].sizedRederive(u.liveSizes(cur, true))
		}
		return plans[ri]
	}
	none := new(changes)
	for frontier, neg := &ms.rem, &ms.add; ; frontier, neg = &ms.next, none {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		s.what = candidates
		mp.changed(old, frontier, neg, st, stats, s)
		// The support check reads the candidates in cur: operator 0 skips the
		// ones an earlier pass deleted.
		for ri := range mp.rules {
			if head := mp.rules[ri].sized.rule.Head.Pred; len(ms.cand.of(head)) > 0 {
				s.what, s.sp, s.mark = support, sized(ri), ms.mark.at(head)
				ms.cand.run(s.sp, cur, st, stats, s)
			}
		}
		ms.next.reset(old)
		for i, pred := range ms.cand.preds {
			rel, in, ok := old.Relation(pred), input.Relation(pred), ms.mark.at(pred)
			deleted, next := ms.deleted.at(pred), ms.next.at(pred)
			for _, id := range ms.cand.sets[i].ids {
				if ok.has(id) {
					continue
				}
				if _, kept := in.LookupID(rel.Tuple(int(id))); !kept && cur.RemoveID(pred, id) {
					deleted.add(id)
					next.add(id)
					stats.Overdeleted++
				}
			}
		}
		ms.cand.reset(cur)
		ms.mark.reset(nil)
		if nonrec || !slices.ContainsFunc(ms.next.sets, func(n idSet) bool { return len(n.ids) > 0 }) {
			break
		}
	}

	// Restore the over-deleted facts the surviving view derives in one step
	// (each rederive variant over the deleted ids, read in old, where they are
	// alive); the insertion loop brings back the rest, as restored facts carry
	// fresh stamps. A non-recursive unit deleted only facts with no firing.
	if !nonrec {
		for ri := range mp.rules {
			if head := mp.rules[ri].sized.rule.Head.Pred; len(ms.deleted.of(head)) > 0 {
				s.what, s.mark = restore, ms.cand.at(head)
				ms.deleted.run(sized(ri), cur, st, stats, s)
			}
		}
		cur.BeginRound()
		for _, pred := range mp.heads {
			stats.Rederived += len(ms.cand.of(pred))
			commit(cur, pred, old.Relation(pred), ms.cand.of(pred))
		}
	}
	cur.BeginRound() // a staged fact may rest on a restored one

	// Insertion side: stage input asserts of the unit's heads and the firings
	// a removed negated fact enabled — and in a non-recursive unit those the
	// lower additions lead, its whole insertion side — then close semi-naively
	// over everything stamped in this Apply. Staged facts have no id until
	// committed, so they are the one set kept as a database.
	s.what = stage
	s.staged.Reset()
	for _, g := range asserts {
		if u.dynamic[g.Pred] && !cur.Has(g) {
			s.staged.Add(g)
		}
	}
	gained := none
	if nonrec {
		gained = &ms.add
	}
	mp.changed(cur, gained, &ms.rem, st, stats, s)
	for _, pred := range mp.heads {
		if rel := s.staged.Relation(pred); rel != nil {
			ms.ids = ms.ids[:0]
			for id := range int32(rel.Len()) {
				ms.ids = append(ms.ids, id)
			}
			commit(cur, pred, rel, ms.ids)
		}
	}
	if !nonrec {
		if err := insertLoop(ctx, cur, u, deltaMin, stats); err != nil {
			return err
		}
	}

	// Net unit diff: what this Apply stamped entered the view unless old has it
	// — an over-deleted fact that came back, under a fresh id: the scan marks
	// its old id back — and the deleted facts left unmarked left the view.
	for _, pred := range mp.heads {
		rel, was, deleted, back := cur.Relation(pred), old.Relation(pred), ms.deleted.of(pred), ms.mark.at(pred)
		if rel == nil {
			continue // no fact of pred was ever in the view, so none was deleted
		}
		for id := rel.LenAt(deltaMin - 1); id < rel.Len(); id++ {
			if !rel.Alive(id) {
				continue
			}
			if len(deleted) > 0 {
				if oid, came := was.LookupID(rel.Tuple(id)); came {
					back.add(oid)
					continue
				}
			}
			ms.add.at(pred).add(int32(id))
		}
		for _, id := range deleted {
			if !back.has(id) {
				ms.rem.at(pred).add(id)
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
