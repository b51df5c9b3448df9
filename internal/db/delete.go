package db

import (
	"math/bits"

	"repro/internal/ast"
)

// Fact-level deletion for incremental view maintenance (internal/eval's
// Maintained views).
//
// Removing a tuple sets its bit in the relation version's dead bitmap and
// nothing else: the tuple keeps its id, its arena cells, its dedup slot and
// its place in every index chain. The contract is on the readers — every one
// of them skips dead ids: LookupID (and so Has) misses them, the probe iterators step over them, set-level readers (Facts,
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
// in id order, renumbered densely: a live id's new id is the id less the dead
// ids below it (rank), so nothing of the relation's size is allocated beyond
// one count per bitmap word. Each maximal run of live ids within one stamp
// run is one copy of the arena; round stamps keep their values (dropping
// elements preserves the non-decreasing order). The dedup table is refilled
// from the old tables' words. Every column index either tier had is rebuilt
// in id order, so its chains probe as before, at its final size — a live
// tuple's key is a key of its tier's index, so the tiers' key counts bound
// it — and the rebuilt set is published once. The relation must be private.
// It returns the number of tuples copied.
func (r *Relation) flatten() int {
	if r.shared {
		panic("db: flatten of a shared relation")
	}
	live := r.Live()
	data := make([]ast.Const, 0, live*r.arity)
	var runs []run
	nid := int32(0)
	tiers := [2]*segment{r.base, &r.seg}
	// The stamps are copied run by run; a run of dead ids leaves nothing, and
	// the base's last run merges with the tail's first when their rounds agree.
	for _, s := range tiers {
		if s == nil {
			continue
		}
		for k, ru := range s.runs {
			end := int(s.off) + s.n
			if k+1 < len(s.runs) {
				end = int(s.off + s.runs[k+1].first)
			}
			for lo := r.firstAlive(int(s.off+ru.first), end, true); lo < end; {
				hi := r.firstAlive(lo, end, false)
				if n := len(runs); n == 0 || runs[n-1].round != ru.round {
					runs = append(runs, run{nid, ru.round})
				}
				data = append(data, s.data[(lo-int(s.off))*r.arity:(hi-int(s.off))*r.arity]...)
				nid += int32(hi - lo)
				lo = r.firstAlive(hi, end, true)
			}
		}
	}
	// rank[w] is the number of dead ids in the bitmap words below w.
	rank := make([]int32, len(r.dead))
	for w := 1; w < len(r.dead); w++ {
		rank[w] = rank[w-1] + int32(bits.OnesCount64(r.dead[w-1]))
	}
	renum := func(id int32) int32 {
		if r.dead == nil {
			return id
		}
		below := r.dead[id>>6] & (1<<(uint(id)&63) - 1)
		return id - rank[id>>6] - int32(bits.OnesCount64(below))
	}
	// The dedup table is refilled from the old ones in slot order, base then
	// tail: a word keeps its tag under the renumbered id, and a walk by slot
	// visits the new table near-sequentially where a walk by id probes it at
	// random.
	dedup := make([]uint64, dedupSize(live+1))
	var set indexSet // one index per mask, keys the tiers' key counts summed
	for _, s := range tiers {
		if s == nil {
			continue
		}
		for _, w := range s.dedup {
			if w == 0 || !r.Alive(int(slotID(w))) {
				continue
			}
			// Live tuples are pairwise distinct: the first free slot is the tuple's.
			nw := slotWord(w, renum(slotID(w)))
			dedup[place(dedup, nw)] = nw
		}
		if old := s.indexes.Load(); old != nil {
			for _, ix := range old.idxs {
				if nix := set.find(ColMask(ix.cols)); nix != nil {
					nix.keys += ix.keys
				} else {
					set.masks, set.idxs = append(set.masks, ColMask(ix.cols)), append(set.idxs, &colIndex{cols: ix.cols, keys: ix.keys})
				}
			}
		}
	}
	r.base = nil
	s := &r.seg
	s.off, s.n, s.data, s.runs, s.dedup = 0, live, data, runs, dedup
	for _, ix := range set.idxs {
		size := dedupSize(min(ix.keys, live))
		ix.slots, ix.tails, ix.next, ix.keys = make([]uint64, size), make([]int32, size), make([]int32, 0, live), 0
		ix.extend(s)
	}
	s.indexes.Store(&set)
	r.dead, r.ndead = nil, 0
	return live
}

// firstAlive returns the first id in [i, end) whose Alive is alive, or end if
// there is none: a scan of the dead bitmap a word at a time.
func (r *Relation) firstAlive(i, end int, alive bool) int {
	if r.dead == nil {
		if alive {
			return min(i, end)
		}
		return end
	}
	for i < end {
		w := r.dead[i>>6]
		if alive {
			w = ^w
		}
		if w >>= uint(i) & 63; w != 0 {
			return min(i+bits.TrailingZeros64(w), end)
		}
		i = (i | 63) + 1
	}
	return end
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
	id, present := d.rels[pred].LookupID(args)
	if !present {
		id = -1 // an absent tuple must not cost a shared relation its copy
	}
	return d.RemoveID(pred, id)
}

// RemoveID deletes pred's tuple id, returning true if it was live. Ids are a
// relation's until a freeze flattens it: a copy-on-write successor keeps
// every id of the version it was thawed from, so an id read from a snapshot
// removes the same tuple from the database thawed from it.
func (d *Database) RemoveID(pred string, id int32) bool {
	if d.frozen {
		panic("db: write to a frozen database (stage changes through Snapshot.Thaw)")
	}
	r := d.last
	if r == nil || pred != d.lastPred {
		r = d.rels[pred]
	}
	if r == nil || id < 0 || int(id) >= r.Len() || !r.Alive(int(id)) {
		return false
	}
	r = d.writable(pred, r)
	r.remove(id)
	d.lastPred, d.last, d.size = pred, r, d.size-1
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
