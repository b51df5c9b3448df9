package db

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// Relation stores the tuples of one predicate in flat columnar arenas: a
// tuple is a run of arity constants, stamped with the round it was inserted
// in. Deduplication and the per-column-set join indexes are open-addressing
// hash tables of one word per slot (see slotWord), keyed by a 64-bit hash of
// the ast.Const values, with collisions resolved by comparing directly
// against the arena — no string keys are materialized anywhere on the insert
// or probe path.
//
// A relation version has up to two tiers. A flat relation keeps everything
// in seg. The first write to a large relation shared with a frozen snapshot
// does not copy it: the successor version points at the frozen version's
// segment as its immutable base and collects its own inserts in a fresh seg
// — the tail, holding the ids from seg.off up — so versions share the base by pointer and a
// later copy-on-write copies the tail only. Removal never touches a tier: it
// sets the tuple's bit in the version's dead bitmap, and every reader skips
// dead ids (Alive). Each tier's dedup table holds one slot per distinct
// tuple value, pointing at the value's newest id in that tier; older ids of
// the same value are dead. flatten rebuilds one flat segment from the live
// tuples in id order — insertion order — which is the only compaction there
// is (see delete.go for when it runs).
//
// Concurrency model: mutation (insert, remove) is single-threaded. Index
// reads are lock-free; indexes are built or extended either explicitly at
// round boundaries (EnsureIndex, driven by eval's freeze step) or lazily
// under the segment's mutex when a probe's round window can actually see
// unindexed tuples. During an evaluation round the freeze step guarantees
// every index a probe will touch is complete, so probes never take the lock. On a shared segment — a frozen version's seg, and every
// base — a published index is never mutated: lazy extension clones it and
// republishes the index set (copy-on-extend), so concurrent snapshot readers
// can keep probing the old copy lock-free.
type Relation struct {
	arity int
	seg   segment  // the whole relation when flat, the tail over base otherwise
	base  *segment // immutable lower tier, holding the ids below seg.off, shared between versions; nil when flat

	// dead is the version's tombstone bitmap over the ids of both tiers, nil
	// while no tuple is dead and always private to the version (a
	// copy-on-write copies it); ndead counts its set bits.
	dead  []uint64
	ndead int

	// shared marks a relation referenced by a frozen Snapshot: its tuple
	// set is immutable (Database.AddTuple stages a successor before the
	// first write), so any number of goroutines may scan, probe and build
	// indexes on it concurrently. Set under Freeze's happens-before edge; a
	// successor is born private.
	shared bool
}

// segment is one tier of a relation: an arena with its round stamps, dedup
// table and column indexes. Ids are relation-wide, so a tail segment starts
// at off = len(base); tables store ids, per-tuple columns are indexed by
// id - off.
type segment struct {
	arity int
	off   int32       // id of the segment's first tuple
	n     int         // number of tuples
	data  []ast.Const // arena: tuple id at [(id-off)*arity : (id-off+1)*arity]
	// runs holds the round stamps, one entry per run of equal stamps: tuples
	// [runs[k].first, runs[k+1].first) carry runs[k].round. Stamps never
	// decrease, so an EDB loaded in one batch is one run.
	runs []run

	// Dedup table: open addressing, power-of-two sized, one slotWord per
	// slot.
	dedup []uint64

	// indexes is an immutable snapshot of the column indexes, swapped
	// atomically when an index is added so lock-free readers never observe
	// a map mutation. The set is tiny (one entry per distinct bound-column
	// mask), so lookup is a linear scan.
	indexes atomic.Pointer[indexSet]
	// mu serializes index creation and lazy extension for out-of-band
	// callers (a Prober bound to a stale index); the evaluation hot path
	// never takes it. It lives in the segment because versions sharing a base
	// build its indexes for each other.
	mu sync.Mutex
}

// indexSet is an immutable (mask → index) association list.
type indexSet struct {
	masks []uint64
	idxs  []*colIndex
}

func (s *indexSet) find(mask uint64) *colIndex {
	for i, m := range s.masks {
		if m == mask {
			return s.idxs[i]
		}
	}
	return nil
}

// run is a stretch of a segment's tuples sharing one round stamp, from
// segment position first (id - off) to the next run's.
type run struct{ first, round int32 }

// colIndex is a hash index over a fixed set of columns of one segment. Each
// distinct projected key owns one table slot: a slotWord naming the first
// tuple id carrying that key, and the chain's last in tails; tuples sharing a
// key are chained in insertion order through next. built records how many of
// the segment's tuples have been incorporated, so the index extends
// incrementally as the segment grows. Dead tuples stay chained; iterators
// skip them.
type colIndex struct {
	cols  []int
	slots []uint64 // slotWord of the key's hash and chain head
	tails []int32  // tuple id + 1 of the chain tail
	keys  int      // number of distinct keys
	next  []int32  // next[id-off] = next tuple id with the same key, -1 = end
	built int
}

func newRelation(arity int) *Relation {
	r := &Relation{arity: arity}
	r.seg.arity = arity
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuple ids, dead ones included: ids run over
// [0, Len()) and Alive tells which still hold a tuple.
func (r *Relation) Len() int { return int(r.seg.off) + r.seg.n }

// Live returns the number of tuples.
func (r *Relation) Live() int { return r.Len() - r.ndead }

// Alive reports whether id i holds a tuple (it was not removed). Positional
// readers — id-range scans — must skip the ids it rejects; LookupID and the
// probe iterators already do.
func (r *Relation) Alive(i int) bool {
	return r.dead == nil || r.dead[i>>6]&(1<<(uint(i)&63)) == 0
}

// lenAt returns the number of the segment's tuples stamped ≤ maxRound: the
// first position of the first run past it.
func (s *segment) lenAt(maxRound int32) int {
	k := len(s.runs)
	if k == 0 || s.runs[k-1].round <= maxRound {
		return s.n
	}
	return int(s.runs[sort.Search(k, func(j int) bool { return s.runs[j].round > maxRound })].first)
}

// roundOf returns the stamp of the tuple at segment position i: the round
// of the last run starting at or before it.
func (s *segment) roundOf(i int32) int32 {
	return s.runs[sort.Search(len(s.runs), func(j int) bool { return s.runs[j].first > i })-1].round
}

// LenAt returns the length of the prefix of ids whose round stamp is
// ≤ maxRound. Round stamps are non-decreasing with insertion order (across
// the tiers too: a tail is written at or after its base's last round), so
// this prefix is exactly the set of tuples a round window [0, maxRound] can
// see; the streaming executor's scans iterate [0, LenAt) with no per-tuple
// round check.
func (r *Relation) LenAt(maxRound int32) int {
	k := r.seg.lenAt(maxRound)
	if k == 0 && r.base != nil {
		return r.base.lenAt(maxRound)
	}
	return int(r.seg.off) + k
}

func (s *segment) tuple(id int) []ast.Const {
	i := id - int(s.off)
	return s.data[i*s.arity : (i+1)*s.arity : (i+1)*s.arity]
}

// Tuple returns the i-th tuple as a view into the arena. The returned slice
// is owned by the relation and must not be modified.
func (r *Relation) Tuple(i int) []ast.Const {
	if i < int(r.seg.off) {
		return r.base.tuple(i)
	}
	i -= int(r.seg.off)
	return r.seg.data[i*r.arity : (i+1)*r.arity : (i+1)*r.arity]
}

// RoundOf returns the round stamp of the i-th tuple.
func (r *Relation) RoundOf(i int) int32 {
	if i < int(r.seg.off) {
		return r.base.roundOf(int32(i))
	}
	return r.seg.roundOf(int32(i) - r.seg.off)
}

// Tuple hashing: one multiply-xorshift mix per constant (splitmix64-style),
// finalized with a single avalanche. hashValues over a projected key and
// hashProj over the same columns of an arena tuple agree by construction.

const hashSeed = 0x9E3779B97F4A7C15

func mixConst(h uint64, c ast.Const) uint64 {
	x := uint64(c)
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	return (h ^ x) * 0x100000001B3
}

func hashValues(vals []ast.Const) uint64 {
	h := uint64(hashSeed)
	for _, v := range vals {
		h = mixConst(h, v)
	}
	return h ^ h>>32
}

func (s *segment) hashProj(id int32, cols []int) uint64 {
	base := int(id-s.off) * s.arity
	h := uint64(hashSeed)
	for _, c := range cols {
		h = mixConst(h, s.data[base+c])
	}
	return h ^ h>>32
}

func (s *segment) tupleEqual(id int32, args []ast.Const) bool {
	base := int(id-s.off) * s.arity
	for j, v := range args {
		if s.data[base+j] != v {
			return false
		}
	}
	return true
}

func (s *segment) projEqual(id int32, cols []int, key []ast.Const) bool {
	base := int(id-s.off) * s.arity
	for j, c := range cols {
		if s.data[base+c] != key[j] {
			return false
		}
	}
	return true
}

func (s *segment) projEqualTuples(a, b int32, cols []int) bool {
	ba, bb := int(a-s.off)*s.arity, int(b-s.off)*s.arity
	for _, c := range cols {
		if s.data[ba+c] != s.data[bb+c] {
			return false
		}
	}
	return true
}

// A hash table slot — of the dedup table and of a column index alike — is
// one word: the high 32 bits of the key's hash (its tag), then id + 1, 0
// being the empty slot. The tag places the slot too (home), so a table is
// regrown, and flatten refills one, from the words alone: no key is rehashed
// and the arena is not read. A probe rejects a slot of another tag before
// comparing against the arena.
const idMask = 1<<32 - 1

func slotWord(h uint64, id int32) uint64 { return h&^idMask | uint64(id+1) }

func slotID(w uint64) int32 { return int32(w&idMask) - 1 }

func sameTag(w, h uint64) bool { return (w^h)&^idMask == 0 }

func home(h, mask uint64) uint64 { return h >> 32 & mask }

// place returns the first free slot of table at or after w's home.
func place(table []uint64, w uint64) uint64 {
	mask := uint64(len(table) - 1)
	j := home(w, mask)
	for table[j] != 0 {
		j = (j + 1) & mask
	}
	return j
}

// regrow returns table's words in a table twice its size (16 slots at
// least). A column index sets withTails, and its tails move with their
// words; the dedup table has no tails and gets nil back.
func regrow(table []uint64, tails []int32, withTails bool) ([]uint64, []int32) {
	grown := make([]uint64, max(2*len(table), 16))
	var moved []int32
	if withTails {
		moved = make([]int32, len(grown))
	}
	for i, w := range table {
		if w == 0 {
			continue
		}
		j := place(grown, w)
		grown[j] = w
		if withTails {
			moved[j] = tails[i]
		}
	}
	return grown, moved
}

// find probes the segment's dedup table for the tuple equal to args, whose
// hash is h: the id the value's slot points at (dead or alive), or -1.
func (s *segment) find(h uint64, args []ast.Const) int32 {
	if len(s.dedup) == 0 {
		return -1
	}
	mask := uint64(len(s.dedup) - 1)
	for i := home(h, mask); ; i = (i + 1) & mask {
		w := s.dedup[i]
		if w == 0 {
			return -1
		}
		if id := slotID(w); sameTag(w, h) && s.tupleEqual(id, args) {
			return id
		}
	}
}

// lookupID probes for a live tuple equal to args. A value removed from the
// base and asserted again lives in the tail, so a dead base hit falls
// through.
func (r *Relation) lookupID(args []ast.Const) (int32, bool) {
	h := hashValues(args)
	if r.base != nil {
		if id := r.base.find(h, args); id >= 0 && r.Alive(int(id)) {
			return id, true
		}
	}
	if id := r.seg.find(h, args); id >= 0 && r.Alive(int(id)) {
		return id, true
	}
	return 0, false
}

// LookupID returns the id of the tuple equal to args, if present. It is the
// zero-allocation fully-bound probe used by the join kernel.
func (r *Relation) LookupID(args []ast.Const) (int32, bool) {
	if len(args) != r.arity {
		return 0, false
	}
	return r.lookupID(args)
}

func (r *Relation) insert(args []ast.Const, round int32) bool {
	if len(args) != r.arity {
		panic("db: tuple arity mismatch")
	}
	h := hashValues(args)
	if r.base != nil {
		if id := r.base.find(h, args); id >= 0 && r.Alive(int(id)) {
			return false
		}
	}
	s := &r.seg
	// Every insert claims at most one slot, so the tuple count bounds the load.
	if 4*(s.n+1) > 3*len(s.dedup) {
		s.dedup, _ = regrow(s.dedup, nil, false)
	}
	mask := uint64(len(s.dedup) - 1)
	i := home(h, mask)
	for {
		w := s.dedup[i]
		if w == 0 {
			break
		}
		if sameTag(w, h) && s.tupleEqual(slotID(w), args) {
			if r.Alive(int(slotID(w))) {
				return false
			}
			break // a removed copy of the value: its slot moves to the new id
		}
		i = (i + 1) & mask
	}
	id := r.Len()
	s.data = append(s.data, args...)
	if k := len(s.runs); k == 0 || s.runs[k-1].round != round {
		s.runs = append(s.runs, run{int32(s.n), round})
	}
	s.n++
	if r.dead != nil && id>>6 >= len(r.dead) {
		r.dead = append(r.dead, 0)
	}
	s.dedup[i] = slotWord(h, int32(id))
	return true
}

// cloneInto deep-copies the segment into dst, index state included: the
// arena, round stamps and dedup table are flat slices (one memcpy each), and
// carrying the column indexes over spares clone-heavy callers (minimize,
// chase, equivopt) from rebuilding them on the first probe of every copy.
func (s *segment) cloneInto(dst *segment) {
	dst.arity, dst.off, dst.n = s.arity, s.off, s.n
	dst.data = append([]ast.Const(nil), s.data...)
	dst.runs = append([]run(nil), s.runs...)
	dst.dedup = append([]uint64(nil), s.dedup...)
	if set := s.indexes.Load(); set != nil {
		ns := &indexSet{masks: append([]uint64(nil), set.masks...)}
		ns.idxs = make([]*colIndex, len(set.idxs))
		for i, ix := range set.idxs {
			ns.idxs[i] = ix.clone()
		}
		dst.indexes.Store(ns)
	}
}

// clone returns a private copy of the relation: the base is shared, seg —
// all of a flat relation, the tail of a two-tier one — and the dead bitmap
// are copied.
func (r *Relation) clone() *Relation {
	c := &Relation{arity: r.arity, base: r.base, ndead: r.ndead}
	r.seg.cloneInto(&c.seg)
	c.dead = append([]uint64(nil), r.dead...)
	return c
}

// successor returns the private relation a write to shared r goes to, and
// how many tuples making it copied. A flat relation becomes the base of an
// empty tail, copying no tuple, unless it is so small that this first write
// already makes it due for a flatten (crowded): then, as for a relation that
// has a tail, the copy is clone's.
func (r *Relation) successor() (*Relation, int) {
	if r.base != nil || crowded(1, r.ndead+1, r.Len()) {
		return r.clone(), r.seg.n
	}
	c := &Relation{arity: r.arity, base: &r.seg, ndead: r.ndead}
	c.seg.arity, c.seg.off = r.arity, int32(r.Len())
	c.dead = append([]uint64(nil), r.dead...)
	return c, 0
}

func (ix *colIndex) clone() *colIndex {
	return &colIndex{
		cols:  append([]int(nil), ix.cols...),
		slots: append([]uint64(nil), ix.slots...),
		tails: append([]int32(nil), ix.tails...),
		keys:  ix.keys,
		next:  append([]int32(nil), ix.next...),
		built: ix.built,
	}
}

// ColMask packs a column set into a bitmask identifying an index.
func ColMask(cols []int) uint64 {
	var mask uint64
	for _, c := range cols {
		mask |= 1 << uint(c)
	}
	return mask
}

// extend incorporates the segment's tuples [built, len) into the index.
func (ix *colIndex) extend(s *segment) {
	for ix.built < s.n {
		if 4*(ix.keys+1) > 3*len(ix.slots) {
			ix.slots, ix.tails = regrow(ix.slots, ix.tails, true)
		}
		id := s.off + int32(ix.built)
		h := s.hashProj(id, ix.cols)
		mask := uint64(len(ix.slots) - 1)
		i := home(h, mask)
		for {
			w := ix.slots[i]
			if w == 0 {
				ix.slots[i] = slotWord(h, id)
				ix.tails[i] = id + 1
				ix.keys++
				break
			}
			if sameTag(w, h) && s.projEqualTuples(slotID(w), id, ix.cols) {
				ix.next[ix.tails[i]-1-s.off] = id
				ix.tails[i] = id + 1
				break
			}
			i = (i + 1) & mask
		}
		ix.next = append(ix.next, -1)
		ix.built++
	}
}

// findHead returns the id of the segment's first tuple whose projection onto
// ix.cols equals key, or -1.
func (ix *colIndex) findHead(s *segment, key []ast.Const) int32 {
	if ix.keys == 0 {
		return -1
	}
	h := hashValues(key)
	mask := uint64(len(ix.slots) - 1)
	for i := home(h, mask); ; i = (i + 1) & mask {
		w := ix.slots[i]
		if w == 0 {
			return -1
		}
		if head := slotID(w); sameTag(w, h) && s.projEqual(head, ix.cols, key) {
			return head
		}
	}
}

// TupleIter walks the ids of the live tuples sharing one projected key,
// oldest first: the base tier's chain, then the tail's. It is a value type:
// probing allocates nothing.
type TupleIter struct {
	next    []int32 // chain links of the tier being walked, indexed by id - off
	cur     int32
	limit   int32 // ids ≥ limit were inserted after the probe; excluded
	off     int32
	tail    int32 // head of the tail tier's chain, walked after the base's; -1 = none
	tailOff int32
	tailIx  *colIndex
	dead    []uint64 // the relation's dead bitmap as of the Seek
}

// Next returns the next matching tuple id.
func (it *TupleIter) Next() (int32, bool) {
	for {
		id := it.cur
		if id < 0 || id >= it.limit {
			if it.tail < 0 {
				return 0, false
			}
			it.next, it.off, it.cur, it.tail = it.tailIx.next, it.tailOff, it.tail, -1
			continue
		}
		it.cur = it.next[id-it.off]
		if it.dead == nil || it.dead[id>>6]&(1<<(uint32(id)&63)) == 0 {
			return id, true
		}
	}
}

// FlatIter is TupleIter for a flat relation without dead tuples (see
// Prober.Flat): one chain, nothing to skip, small enough that seeking and
// stepping inline into the join's inner loop.
type FlatIter struct {
	next  []int32
	cur   int32
	limit int32
}

// Next returns the next matching tuple id.
func (it *FlatIter) Next() (int32, bool) {
	id := it.cur
	if id < 0 || id >= it.limit {
		return 0, false
	}
	it.cur = it.next[id]
	return id, true
}

// EnsureIndex builds (or extends to cover all current tuples) the hash
// index over the given column set, on both tiers. eval's round-boundary
// freeze step calls this so that every probe during the round is a pure
// lock-free read.
func (r *Relation) EnsureIndex(cols []int) {
	if len(cols) == 0 {
		return
	}
	mask := ColMask(cols)
	if r.base != nil {
		r.base.ensureIndexLocked(mask, cols, true)
	}
	r.seg.ensureIndexLocked(mask, cols, r.shared)
}

// ensureIndexLocked returns the segment's index over cols covering every
// current tuple. shared says other goroutines may be probing the segment's
// published indexes.
func (s *segment) ensureIndexLocked(mask uint64, cols []int, shared bool) *colIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.indexes.Load()
	var ix *colIndex
	if set != nil {
		ix = set.find(mask)
	}
	if ix == nil {
		cc := make([]int, len(cols))
		copy(cc, cols)
		ix = &colIndex{cols: cc}
		ix.extend(s)
		ns := &indexSet{}
		if set != nil {
			ns.masks = append(ns.masks, set.masks...)
			ns.idxs = append(ns.idxs, set.idxs...)
		}
		ns.masks = append(ns.masks, mask)
		ns.idxs = append(ns.idxs, ix)
		s.indexes.Store(ns)
		return ix
	}
	if ix.built == s.n {
		return ix
	}
	if shared {
		// Copy-on-extend: a published index on a shared segment is probed
		// lock-free by any number of snapshot readers, so it must stay
		// immutable. Extend a private clone and republish the index set;
		// readers holding the old set keep a consistent (merely shorter)
		// view, and the segment never grows again once shared, so this
		// happens at most once per stale index.
		nix := ix.clone()
		nix.extend(s)
		ns := &indexSet{
			masks: append([]uint64(nil), set.masks...),
			idxs:  append([]*colIndex(nil), set.idxs...),
		}
		for i, m := range ns.masks {
			if m == mask {
				ns.idxs[i] = nix
			}
		}
		s.indexes.Store(ns)
		return nix
	}
	ix.extend(s)
	return ix
}

// indexFor returns the segment's index over cols, complete for the round
// window [0, maxRound]: when every unindexed tuple is newer than maxRound
// (the invariant eval's freeze step establishes for in-round probes, since
// round stamps are non-decreasing) it is a lock-free read; otherwise the
// index is built or extended under the segment lock first.
func (s *segment) indexFor(mask uint64, cols []int, maxRound int32, shared bool) *colIndex {
	var ix *colIndex
	if set := s.indexes.Load(); set != nil {
		ix = set.find(mask)
	}
	if ix == nil || ix.built < s.lenAt(maxRound) {
		ix = s.ensureIndexLocked(mask, cols, shared)
	}
	return ix
}

// Prober is a probe cursor bound once to one relation's column index: the
// index pointers and the visible-tuple limit are resolved at bind time, so
// each Seek is a pure hash probe per tier with no atomic snapshot load, mask
// search, or staleness check. It is the iterator-friendly probe API the
// streaming executor binds per body atom per pass — one Prober, many Seeks.
// A Prober is a value; binding and seeking allocate nothing.
//
// The bound snapshot stays sufficient for a whole pass: tuples inserted
// after the bind carry a round stamp greater than maxRound, which the
// caller's window excludes, so the limit captured at bind time is exactly
// the window's horizon.
type Prober struct {
	rel   *Relation
	ix    *colIndex // seg's index
	bix   *colIndex // base's index; nil when flat
	limit int32
}

// Prober binds a probe cursor over the given column set. cols must be
// sorted and duplicate-free; maxRound is the upper bound of the caller's
// round window (see indexFor for the lazy-extension contract).
func (r *Relation) Prober(cols []int, maxRound int32) Prober {
	mask := ColMask(cols)
	// The indexes may cover tuples newer than the window (they always extend
	// to the full segment); clamping to the window's id prefix is what lets
	// Seek's consumers skip per-tuple round checks entirely.
	p := Prober{rel: r, limit: int32(r.LenAt(maxRound))}
	if r.base != nil {
		p.bix = r.base.indexFor(mask, cols, maxRound, true)
	}
	p.ix = r.seg.indexFor(mask, cols, maxRound, r.shared)
	return p
}

// Flat reports whether the bound relation was flat and free of dead tuples
// at bind time — every relation an evaluation derives into or reads from an
// unmutated input. The executor tests it once per operator per pass and
// takes SeekFlat on that side of the branch; Seek serves every relation.
func (p Prober) Flat() bool { return p.bix == nil && p.rel.dead == nil }

// SeekFlat is Seek on a Flat prober.
func (p Prober) SeekFlat(key []ast.Const) FlatIter {
	return FlatIter{next: p.ix.next, cur: p.ix.findHead(&p.rel.seg, key), limit: p.limit}
}

// Seek returns an iterator over the ids of live tuples whose projection onto
// the bound column set equals key, oldest first.
func (p Prober) Seek(key []ast.Const) TupleIter {
	r := p.rel
	it := TupleIter{next: p.ix.next, cur: p.ix.findHead(&r.seg, key), limit: p.limit,
		off: r.seg.off, tail: -1, dead: r.dead}
	if p.bix != nil {
		if b := p.bix.findHead(r.base, key); b >= 0 {
			it.tail, it.tailOff, it.tailIx = it.cur, it.off, p.ix
			it.next, it.cur, it.off = p.bix.next, b, 0
		}
	}
	return it
}

// RoundWindow restricts a read to tuples whose round stamp falls within
// [Min, Max]. Semi-naive evaluation uses windows to aim one body atom at the
// newest facts (the Δ of the last round) and the remaining atoms at older
// strata.
type RoundWindow struct {
	Min, Max int32
}

// AllRounds is a round window accepting every tuple.
var AllRounds = RoundWindow{Min: 0, Max: math.MaxInt32}

// Select returns the tuples of d matching the query atom's pattern
// (constants filter, repeated variables must agree, every column is
// returned), in the relation's insertion order. The rows are copies.
func Select(d *Database, query ast.Atom) [][]ast.Const {
	rel := d.rels[query.Pred]
	if rel == nil || rel.arity != len(query.Args) {
		return nil
	}
	// The constant columns key the read; eq pairs each repeat of a variable
	// with the column of its first occurrence.
	var cols []int
	var key []ast.Const
	var eq [][2]int
	for i, t := range query.Args {
		if !t.IsVar {
			cols, key = append(cols, i), append(key, t.Val)
		} else if j := slices.Index(query.Args[:i], t); j >= 0 {
			eq = append(eq, [2]int{i, j})
		}
	}
	var rows [][]ast.Const
	take := func(id int) {
		tuple := rel.Tuple(id)
		for _, e := range eq {
			if tuple[e[0]] != tuple[e[1]] {
				return
			}
		}
		rows = append(rows, slices.Clone(tuple))
	}
	switch len(cols) {
	case 0:
		for id := 0; id < rel.Len(); id++ {
			if rel.Alive(id) {
				take(id)
			}
		}
	case rel.arity:
		if id, ok := rel.lookupID(key); ok {
			take(int(id))
		}
	default:
		it := rel.Prober(cols, math.MaxInt32).Seek(key)
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			take(int(id))
		}
	}
	return rows
}
