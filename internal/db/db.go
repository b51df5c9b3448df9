// Package db implements the ground-atom databases of Section III: a DB is a
// set of ground atoms, viewed as a collection of relations, one per
// predicate. Relations keep insertion order, stamp every tuple with the
// evaluation round that produced it (which is what makes semi-naive
// evaluation possible), and build hash indexes lazily for join lookups.
package db

import (
	"sort"
	"strings"

	"repro/internal/ast"
)

// Database is a set of ground atoms grouped into relations by predicate.
// Tuples are stamped with the round counter current at insertion time;
// see BeginRound.
type Database struct {
	rels  map[string]*Relation
	round int32
	size  int
	// frozen marks a database made immutable by Freeze: mutators panic, and
	// Clone degrades to a map copy sharing every relation (see snapshot.go).
	frozen bool
	// dirty lists the predicates of private (unshared) relations — each
	// appended exactly once, at relation creation or at the copy-on-write
	// shared→private transition — so Freeze and Compact walk only the
	// relations written since the last freeze instead of the whole map.
	// Freeze shares every listed relation and resets the list.
	dirty []string
	// copied counts the tuples copy-on-write and flatten copied (TuplesCopied).
	copied int
	// lastPred / last memoize AddTuple's resolution of its predicate: a rule
	// application emits one head predicate, so the string-keyed map lookup is
	// paid once per run of emissions, not once per emission. writable — the one
	// place that replaces an entry of rels — drops the memo.
	lastPred string
	last     *Relation
}

// New returns an empty database.
func New() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// FromFacts builds a database holding exactly the given ground atoms.
func FromFacts(facts []ast.GroundAtom) *Database {
	d := New()
	for _, g := range facts {
		d.Add(g)
	}
	return d
}

// Round returns the current round stamp.
func (d *Database) Round() int32 { return d.round }

// BeginRound advances the round counter; tuples added afterwards are stamped
// with the new round. It returns the new round number.
func (d *Database) BeginRound() int32 {
	if d.frozen {
		panic("db: BeginRound on a frozen database")
	}
	d.round++
	return d.round
}

// resetKeep is the most ids a relation may hold for Reset to keep its
// tables.
const resetKeep = 256

// Reset empties a scratch database — never frozen, so every relation is
// private — for reuse from round 0. A relation of at most resetKeep ids keeps
// its arena and dedup table; a larger one is replaced: its tables cost more
// to clear, and to keep alive, than to allocate again.
func (d *Database) Reset() {
	for pred, r := range d.rels {
		if r.Len() > resetKeep {
			d.rels[pred] = newRelation(r.arity)
			continue
		}
		s := &r.seg
		s.n, s.data, s.runs = 0, s.data[:0], s.runs[:0]
		clear(s.dedup)
		s.indexes.Store(nil)
		r.dead, r.ndead = nil, 0
	}
	d.round, d.size, d.copied, d.last = 0, 0, 0, nil
}

// Add inserts a ground atom, returning true if it was new. Newly created
// relations take their arity from the first atom inserted; inserting a tuple
// of a different arity for an existing predicate panics, since programs are
// arity-checked before evaluation.
func (d *Database) Add(g ast.GroundAtom) bool {
	return d.AddTuple(g.Pred, g.Args)
}

// AddTuple inserts args as a tuple of pred, returning true if it was new.
func (d *Database) AddTuple(pred string, args []ast.Const) bool {
	if d.frozen {
		panic("db: write to a frozen database (stage changes through Snapshot.Thaw)")
	}
	r := d.last
	if r == nil || pred != d.lastPred {
		var ok bool
		if r, ok = d.rels[pred]; !ok {
			r = newRelation(len(args))
			d.rels[pred] = r
			d.dirty = append(d.dirty, pred)
		} else if r.Len() == 0 {
			r.arity, r.seg.arity = len(args), len(args) // emptied by Reset: the name may serve another arity
		}
		d.lastPred, d.last = pred, r
	}
	if r.shared {
		if _, present := r.lookupID(args); present {
			return false // a duplicate must not cost a shared relation its copy
		}
		r = d.writable(pred, r)
	}
	if r.insert(args, d.round) {
		d.size++
		return true
	}
	return false
}

// Has reports whether the ground atom is present.
func (d *Database) Has(g ast.GroundAtom) bool {
	return d.HasTuple(g.Pred, g.Args)
}

// HasTuple reports whether args is a tuple of pred.
func (d *Database) HasTuple(pred string, args []ast.Const) bool {
	r, ok := d.rels[pred]
	if !ok || r.arity != len(args) {
		return false
	}
	_, present := r.lookupID(args)
	return present
}

// EnsureIndex builds or extends pred's hash index over the given column
// set, so subsequent probes against it are lock-free reads. It is a no-op
// for unknown predicates (the relation may first appear in a later round)
// and empty column sets. eval calls this at round boundaries for every
// (predicate, bound-column) pair its joins will probe.
func (d *Database) EnsureIndex(pred string, cols []int) {
	if r, ok := d.rels[pred]; ok {
		r.EnsureIndex(cols)
	}
}

// Relation returns the relation for pred, or nil if no tuple of pred has
// been inserted.
func (d *Database) Relation(pred string) *Relation { return d.rels[pred] }

// Preds returns the predicates with at least one live tuple, sorted.
func (d *Database) Preds() []string {
	preds := make([]string, 0, len(d.rels))
	for p, r := range d.rels {
		if r.Live() > 0 {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	return preds
}

// Len returns the total number of ground atoms.
func (d *Database) Len() int { return d.size }

// Clone returns a writable copy of the database (round stamps included).
// Private relations are copied (Relation.clone); relations shared with a
// frozen snapshot are immutable, so the copy shares them and the first write
// to one stages its successor (copy-on-write via AddTuple). Cloning a frozen
// database is therefore a map copy — the cheap path every evaluation over a
// Snapshot takes.
func (d *Database) Clone() *Database {
	c := &Database{rels: make(map[string]*Relation, len(d.rels)), round: d.round, size: d.size}
	for p, r := range d.rels {
		if r.shared {
			c.rels[p] = r
		} else {
			c.rels[p] = r.clone()
		}
	}
	// Deep-copied relations are private in the copy too, so the copy's
	// dirty set is exactly the source's (empty when d is frozen: Freeze
	// shared everything and reset it).
	if len(d.dirty) > 0 {
		c.dirty = append([]string(nil), d.dirty...)
	}
	return c
}

// DirtyRelations returns the number of relations written since the last
// freeze — the relations the next Freeze must seal and share.
func (d *Database) DirtyRelations() int { return len(d.dirty) }

// RelationCount returns the number of relations (predicates) held,
// including those whose every tuple is dead.
func (d *Database) RelationCount() int { return len(d.rels) }

// AddAll inserts every fact of other, returning the number of new facts.
func (d *Database) AddAll(other *Database) int {
	added := 0
	for _, p := range other.Preds() {
		r := other.rels[p]
		for i := 0; i < r.Len(); i++ {
			if r.Alive(i) && d.AddTuple(p, r.Tuple(i)) {
				added++
			}
		}
	}
	return added
}

// Contains reports whether every fact of other is present in d.
func (d *Database) Contains(other *Database) bool {
	for p, r := range other.rels {
		for i := 0; i < r.Len(); i++ {
			if r.Alive(i) && !d.HasTuple(p, r.Tuple(i)) {
				return false
			}
		}
	}
	return true
}

// Equal reports whether d and other hold exactly the same set of facts.
func (d *Database) Equal(other *Database) bool {
	return d.size == other.size && d.Contains(other) && other.Contains(d)
}

// Facts returns every ground atom, ordered by predicate name and insertion
// order within a predicate.
func (d *Database) Facts() []ast.GroundAtom {
	out := make([]ast.GroundAtom, 0, d.size)
	for _, p := range d.Preds() {
		r := d.rels[p]
		for i := 0; i < r.Len(); i++ {
			if !r.Alive(i) {
				continue
			}
			t := r.Tuple(i)
			args := make([]ast.Const, len(t))
			copy(args, t)
			out = append(out, ast.GroundAtom{Pred: p, Args: args})
		}
	}
	return out
}

// SortedIDs appends to buf the ids of r's live tuples in canonical order —
// ascending by arguments, compared constant by constant — and returns it.
// It is an LSD radix sort on keys extracted from the arena: columns last to
// first, each a stable counting pass per key byte that varies among the ids
// (a batch of small constants sorts in a pass or two a column). A key is the
// constant with its sign bit flipped, so unsigned byte order is the signed
// order of ast.Const. No tuple is materialized.
func (r *Relation) SortedIDs(buf []int32) []int32 {
	buf = buf[:0]
	for i := 0; i < r.Len(); i++ {
		if r.Alive(i) {
			buf = append(buf, int32(i))
		}
	}
	n := len(buf)
	if n < 2 {
		return buf
	}
	keys := make([]uint64, 2*n)
	src, dst := buf, make([]int32, n)
	ks, kd := keys[:n], keys[n:]
	for col := r.arity - 1; col >= 0; col-- {
		var varies uint64 // the key bits that differ from the first id's
		for i, id := range src {
			ks[i] = uint64(r.Tuple(int(id))[col]) ^ 1<<63
			varies |= ks[i] ^ ks[0]
		}
		for shift := uint(0); varies>>shift != 0; shift += 8 {
			if varies>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for _, k := range ks {
				at[k>>shift&0xff]++
			}
			sum := 0
			for b, c := range at {
				at[b], sum = sum, sum+c
			}
			for i, k := range ks {
				j := &at[k>>shift&0xff]
				dst[*j], kd[*j] = src[i], k
				*j++
			}
			src, dst, ks, kd = dst, src, kd, ks
		}
	}
	return append(buf[:0], src...)
}

// SortedFacts returns every ground atom in canonical order: by predicate
// name, then by arguments (SortedIDs). The atoms of one relation share one
// backing array.
func (d *Database) SortedFacts() []ast.GroundAtom {
	out := make([]ast.GroundAtom, 0, d.size)
	var ids []int32
	for _, p := range d.Preds() {
		r := d.rels[p]
		ids = r.SortedIDs(ids)
		args := make([]ast.Const, 0, len(ids)*r.arity)
		for _, id := range ids {
			n := len(args)
			args = append(args, r.Tuple(int(id))...)
			out = append(out, ast.GroundAtom{Pred: p, Args: args[n:len(args):len(args)]})
		}
	}
	return out
}

// Consts returns the set of constants appearing in the database.
func (d *Database) Consts() map[ast.Const]bool {
	set := make(map[ast.Const]bool)
	for _, r := range d.rels {
		for i := 0; i < r.Len(); i++ {
			if !r.Alive(i) {
				continue
			}
			for _, c := range r.Tuple(i) {
				set[c] = true
			}
		}
	}
	return set
}

// MaxGeneratedIndexes returns the largest frozen-constant index and labeled-
// null index occurring in the database's (live) facts, or -1 when none
// occurs; generators for fresh constants are seeded past these.
func (d *Database) MaxGeneratedIndexes() (maxFrozen, maxNull int) {
	maxFrozen, maxNull = -1, -1
	for _, r := range d.rels {
		for i := 0; i < r.Len(); i++ {
			if !r.Alive(i) {
				continue
			}
			for _, c := range r.Tuple(i) {
				switch {
				case ast.IsFrozen(c):
					if idx := ast.FrozenIndex(c); idx > maxFrozen {
						maxFrozen = idx
					}
				case ast.IsNull(c):
					if idx := ast.NullIndex(c); idx > maxNull {
						maxNull = idx
					}
				}
			}
		}
	}
	return maxFrozen, maxNull
}

// Format renders the database one fact per line, predicates sorted, using
// tab for symbolic constants.
func (d *Database) Format(tab *ast.SymbolTable) string {
	var sb strings.Builder
	for _, g := range d.Facts() {
		sb.WriteString(g.Format(tab))
		sb.WriteString(".\n")
	}
	return sb.String()
}

// String renders the database without a symbol table.
func (d *Database) String() string { return d.Format(nil) }

// Summary describes a database's shape: per-predicate cardinalities plus
// totals, for diagnostics and the REPL's :stats command.
type Summary struct {
	// Predicates maps each predicate to its tuple count.
	Predicates map[string]int
	// Facts is the total fact count.
	Facts int
	// Constants is the number of distinct constants.
	Constants int
}

// Summarize computes the database's Summary.
func (d *Database) Summarize() Summary {
	s := Summary{Predicates: make(map[string]int), Facts: d.size}
	for _, p := range d.Preds() {
		r := d.rels[p]
		s.Predicates[p] = r.Live()
	}
	s.Constants = len(d.Consts())
	return s
}
