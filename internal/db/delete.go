package db

import "repro/internal/ast"

// Fact-level deletion and derivation-count support for incremental view
// maintenance (internal/eval's Maintained views).
//
// Removing a tuple sets its bit in the relation version's dead bitmap and
// nothing else: the tuple keeps its id, its arena cells, its dedup slot and
// its place in every index chain. The contract is on the readers — every one
// of them skips dead ids: LookupID (and so Has, BumpCount, TupleCount) misses
// them, the probe iterators step over them, set-level readers (Facts,
// Contains, Consts, AddAll, MaxGeneratedIndexes) and id-range scans test
// Relation.Alive. A relation with dead tuples is therefore a valid input to
// evaluation, frozen or not, and a removed tuple's id is never reused: a
// value removed and asserted again gets a fresh id at the end, exactly where
// compaction-then-insert would have put it, so insertion order (Facts) does
// not depend on when compaction runs.
//
// Compaction is flatten: rebuild one flat segment from the live tuples in id
// order. When to run it is the store's decision, taken where a version is
// sealed (Freeze) from the sizes it observes: a relation is flattened once
// its tail or its dead tuples exceed 1/flattenShare of its ids. The tail
// bound caps what a later copy-on-write copies, the dead bound the memory
// removed tuples hold, and either way a flatten's n tuple copies are paid
// for by the n/flattenShare writes since the last one. Compact is the
// explicit "now".
//
// The counts column (counts.go) is the per-tuple derivation count of
// counting-based maintenance: a count belongs to an id and travels with the
// tuple through copy-on-write and flatten, so a maintained output survives
// snapshots without a side table.

// flattenShare is the inverse of the share of a relation's ids that may sit
// in the tail, and of the share that may be dead, before the relation is
// flattened.
const flattenShare = 16

// crowded is the one flatten inequality: tail ids and dead ids out of n.
func crowded(tail, dead, n int) bool { return max(tail, dead)*flattenShare > n }

// crowded reports whether the relation is due for a flatten.
func (r *Relation) crowded() bool {
	tail := 0
	if r.base != nil {
		tail = r.seg.n
	}
	return crowded(tail, r.ndead, r.Len())
}

// remove marks the live tuple id dead.
func (r *Relation) remove(id int32) {
	if r.dead == nil {
		r.dead = make([]uint64, (r.Len()+63)>>6)
	}
	r.dead[id>>6] |= 1 << (uint(id) & 63)
	r.ndead++
}

// Dead returns the number of removed tuples still holding an id.
func (r *Relation) Dead() int { return r.ndead }

// flatten rebuilds the relation as one flat segment holding the live tuples
// in id order, renumbered densely: round stamps keep their values (dropping
// elements preserves the non-decreasing order), counts follow their tuples,
// and the dedup table and every column index either tier had are built
// afresh. The relation must be private. It returns the number of tuples
// copied.
func (r *Relation) flatten() int {
	if r.shared {
		panic("db: flatten of a shared relation")
	}
	live := r.Live()
	data := make([]ast.Const, 0, live*r.arity)
	var runs []run
	var counts countCol
	if r.counts.on() {
		counts.enable(live)
	}
	tiers := [2]*segment{r.base, &r.seg}
	// renum[id] is live id's new id: id less the dead ids below it. The
	// stamps are copied run by run; a run of dead ids leaves nothing, and the
	// base's last run merges with the tail's first when their rounds agree.
	renum := make([]int32, r.Len())
	nid := int32(0)
	for _, s := range tiers {
		if s == nil {
			continue
		}
		for k, ru := range s.runs {
			end := int32(s.n)
			if k+1 < len(s.runs) {
				end = s.runs[k+1].first
			}
			for id := s.off + ru.first; id < s.off+end; id++ {
				if !r.Alive(int(id)) {
					continue
				}
				if n := len(runs); n == 0 || runs[n-1].round != ru.round {
					runs = append(runs, run{nid, ru.round})
				}
				renum[id] = nid
				data = append(data, s.tuple(int(id))...)
				if counts.on() {
					counts.pages[nid>>countPageBits][nid&countPageMask] = r.counts.get(id)
				}
				nid++
			}
		}
	}
	// The dedup table is refilled from the old ones in slot order, base then
	// tail: a word keeps its tag under the renumbered id, and a walk by slot
	// visits the new table near-sequentially where a walk by id probes it at
	// random.
	size := 16
	for 4*(live+1) > 3*size {
		size *= 2
	}
	dedup := make([]uint64, size)
	var indexed [][]int
	for _, s := range tiers {
		if s == nil {
			continue
		}
		for _, w := range s.dedup {
			if w == 0 || !r.Alive(int(slotID(w))) {
				continue
			}
			// Live tuples are pairwise distinct: the first free slot is the tuple's.
			nw := slotWord(w, renum[slotID(w)])
			dedup[place(dedup, nw)] = nw
		}
		if set := s.indexes.Load(); set != nil {
			for _, ix := range set.idxs {
				indexed = append(indexed, ix.cols)
			}
		}
	}
	r.base = nil
	s := &r.seg
	s.off, s.n, s.data, s.runs, s.dedup = 0, live, data, runs, dedup
	s.indexes.Store(nil)
	for _, cols := range indexed {
		s.ensureIndexLocked(ColMask(cols), cols, false) // a repeat finds it built
	}
	r.dead, r.ndead = nil, 0
	r.counts = counts
	return live
}

// EnableCounts materializes the derivation-count column (all zeros when
// first enabled). Idempotent.
func (r *Relation) EnableCounts() {
	if !r.counts.on() {
		r.counts.enable(r.Len())
	}
}

// HasCounts reports whether the derivation-count column is materialized.
func (r *Relation) HasCounts() bool { return r.counts.on() }

// CountOf returns tuple id's derivation count (0 when counts are disabled).
func (r *Relation) CountOf(id int32) int32 {
	if !r.counts.on() {
		return 0
	}
	return r.counts.get(id)
}

// writable returns pred's relation ready for a write: a relation shared with
// a frozen snapshot is replaced by its private successor first
// (copy-on-write), which puts the predicate on the dirty list. Shared
// relations therefore never change — the invariant that keeps snapshot
// readers' lock-free probes valid.
func (d *Database) writable(pred string, r *Relation) *Relation {
	if !r.shared {
		return r
	}
	r, copied := r.successor()
	d.copied += copied
	d.rels[pred], d.last = r, nil
	d.dirty = append(d.dirty, pred)
	return r
}

// Remove deletes a ground atom, returning true if it was present. Like
// AddTuple, the first write to a relation shared with a frozen snapshot goes
// to a private successor (copy-on-write).
func (d *Database) Remove(g ast.GroundAtom) bool {
	return d.RemoveTuple(g.Pred, g.Args)
}

// RemoveTuple deletes args as a tuple of pred, returning true if present.
func (d *Database) RemoveTuple(pred string, args []ast.Const) bool {
	if d.frozen {
		panic("db: write to a frozen database (stage changes through Snapshot.Thaw)")
	}
	r, ok := d.rels[pred]
	if !ok || r.arity != len(args) {
		return false
	}
	id, present := r.lookupID(args)
	if !present {
		return false // before writable: an absent tuple must not cost a shared relation its copy
	}
	d.writable(pred, r).remove(id) // a successor keeps every id
	d.size--
	return true
}

// Compact flattens, now, every relation written since the last freeze that
// has a tail or dead tuples (see Relation.flatten); Freeze does the same
// only to the relations past the flatten threshold. Nothing requires a call
// — readers skip dead tuples — it trades a rebuild for the memory they hold.
func (d *Database) Compact() {
	if d.frozen {
		return // a frozen database is immutable, its dead tuples included
	}
	for _, p := range d.dirty {
		if r := d.rels[p]; !r.shared && (r.base != nil || r.ndead > 0) {
			d.copied += r.flatten()
		}
	}
}

// TuplesCopied returns how many tuples the store physically copied on this
// database's behalf since it was created or cloned: the tails duplicated by
// copy-on-write and the live tuples rebuilt by flatten.
func (d *Database) TuplesCopied() int { return d.copied }

// BumpCount adjusts the derivation count of an existing tuple by delta and
// returns the new count, materializing the count column on first use and
// staging a shared relation's successor first (copy-on-write). ok=false when
// the tuple is absent.
func (d *Database) BumpCount(pred string, args []ast.Const, delta int32) (int32, bool) {
	if d.frozen {
		panic("db: write to a frozen database (stage changes through Snapshot.Thaw)")
	}
	r, ok := d.rels[pred]
	if !ok || r.arity != len(args) {
		return 0, false
	}
	id, present := r.lookupID(args)
	if !present {
		return 0, false
	}
	r = d.writable(pred, r)
	r.EnableCounts()
	return r.counts.add(id, delta), true
}

// TupleCount returns the derivation count of a tuple; ok=false when absent.
func (d *Database) TupleCount(pred string, args []ast.Const) (int32, bool) {
	r, ok := d.rels[pred]
	if !ok || r.arity != len(args) {
		return 0, false
	}
	id, present := r.lookupID(args)
	if !present {
		return 0, false
	}
	return r.CountOf(id), true
}
