package db

// Copy-on-freeze snapshots. A long-running server wants many concurrent
// readers over one tenant database while a writer stages the next version.
// Deep-cloning per request would copy every arena; locking per probe would
// serialize the hot path. Freeze gives the third option: mark the database
// and its relations immutable, hand out a Snapshot, and make every later
// Clone a map-copy of shared relation pointers. Shared relations never change
// (a write goes to a private successor: Relation.successor), so the
// lock-free index probes of the evaluation hot path stay valid for every
// reader, and index building on a shared relation never mutates published
// state: new and extended indexes are built privately under the segment
// mutex and published atomically (copy-on-extend) — readers of one snapshot,
// and of every later version sharing its segment as a base, even share
// lazily built warm indexes.
//
// Concurrency contract: Freeze must happen-before the snapshot is shared
// with other goroutines (publish it through a channel, mutex, or atomic —
// the registry layers above do). After that, any number of goroutines may
// read, probe, index, Clone and Thaw concurrently.

// Snapshot is an immutable view of a frozen database. The underlying
// database can no longer be mutated; writes go through Thaw, which stages a
// cheap copy-on-write successor.
type Snapshot struct {
	d *Database
}

// Freeze makes d immutable and returns its snapshot handle. Every relation
// is marked shared, so all subsequent Clone/Thaw copies are shallow: they
// share relation storage until a write to a specific predicate stages that
// one relation's successor. Mutating d after Freeze panics.
//
// Relations already marked shared are inherited from a frozen predecessor
// and skipped: readers of the older snapshot read r.shared concurrently
// (Clone, AddTuple), so re-writing even the same value would be a data
// race. Unshared relations are still private to this staging database, so
// marking them here is race-free, and the publication of the returned
// snapshot carries the happens-before edge readers need.
func (d *Database) Freeze() *Snapshot {
	d.frozen = true
	// Only dirty relations can be unshared: a predicate enters the dirty
	// list exactly when its relation is created or copied private, so
	// walking it visits every relation written since the last freeze and
	// none of the untouched ones (the win on wide schemas where a batch
	// touches a handful of predicates).
	for _, p := range d.dirty {
		if r := d.rels[p]; !r.shared {
			// Sealing a version is where compaction is decided: flatten the
			// relation if its tail and dead tuples outgrew their share, so
			// what the next version copies, and what dead tuples hold, stay
			// bounded.
			if r.crowded() {
				d.copied += r.flatten()
			}
			r.shared = true
		}
	}
	d.dirty = nil
	return &Snapshot{d: d}
}

// DB returns the frozen database for reading and evaluation input. Callers
// must not mutate it (mutators panic); evaluation's own input.Clone() is a
// shallow copy-on-write copy, so evaluating a snapshot is cheap and safe
// from any number of goroutines.
func (s *Snapshot) DB() *Database { return s.d }

// Len returns the snapshot's fact count.
func (s *Snapshot) Len() int { return s.d.Len() }

// Thaw returns a writable database staging the snapshot's successor: it
// shares every relation with the snapshot until a write touches that
// relation, which stages the relation's successor first (copy-on-write: the
// snapshot's segment becomes the shared base of a private tail). The
// snapshot itself is unaffected; concurrent readers keep their view.
func (s *Snapshot) Thaw() *Database { return s.d.Clone() }
