package chase

import (
	"sync"
	"sync/atomic"
)

// The verdict store is a content-addressed memo of uniform-containment
// verdicts: program canonical form → (rule canonical form → verdict). The
// verdict of r ⊑ᵘ P is an exact semantic property, invariant under renaming
// the variables of either side, so it can be shared across sessions, across
// the Fig. 1/2 loops, and across repeated requests that revisit the same
// programs — a new Checker over an already-seen program answers without
// chasing at all. Every entry was stored by a ContainsRule run on a session
// over the table's own program: nothing copies verdicts between programs.
//
// The two-level shape is deliberate: a Checker resolves its program's inner
// table once at construction, so the per-test key is just the rule's
// canonical form instead of a program-sized concatenation. Both levels are
// looked up by a key the Checker appends into a scratch buffer: m[string(b)]
// does not allocate, so a string is made only when a table or a verdict is
// stored.
//
// The outer store is bounded by generational rotation: when the live
// generation fills, it becomes the previous generation and a fresh one
// starts; programs untouched for two generations are dropped. This keeps
// the footprint flat for long-lived processes at O(1) per operation.
// Sessions holding a rotated-out table keep working; they just stop being
// discoverable by new sessions.
type verdictStore struct {
	mu   sync.Mutex
	max  int
	cur  map[string]*progVerdicts
	prev map[string]*progVerdicts

	// Counters are atomics, not mu-guarded: lookups happen on every
	// ContainsRule of every concurrent session, and a stats snapshot must
	// not contend with them. rotations counts generation turnovers (mutated
	// under mu anyway, atomic for a consistent read path).
	lookups   atomic.Uint64
	hits      atomic.Uint64
	rotations atomic.Uint64
}

// progVerdicts is the verdict table of one program content address. It is
// shared by every session over a canonically equal program, so it carries
// its own lock (Checkers are single-threaded, but distinct sessions may
// run concurrently).
type progVerdicts struct {
	store *verdictStore // owning store, for race-clean hit accounting
	mu    sync.Mutex
	m     map[string]bool
}

// defaultVerdictStoreSize bounds each generation of program tables; two
// generations may be live at once.
const defaultVerdictStoreSize = 1024

var defaultVerdicts = &verdictStore{max: defaultVerdictStoreSize, cur: make(map[string]*progVerdicts)}

// forProgram returns the (shared) verdict table for the program with the
// given canonical form, creating it if needed.
func (vs *verdictStore) forProgram(progCanon []byte) *progVerdicts {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if pv, ok := vs.cur[string(progCanon)]; ok {
		return pv
	}
	if pv, ok := vs.prev[string(progCanon)]; ok {
		vs.insertLocked(string(progCanon), pv) // promote so reuse keeps it alive
		return pv
	}
	pv := &progVerdicts{store: vs, m: make(map[string]bool)}
	vs.insertLocked(string(progCanon), pv)
	return pv
}

func (vs *verdictStore) insertLocked(progCanon string, pv *progVerdicts) {
	if len(vs.cur) >= vs.max {
		vs.prev = vs.cur
		vs.cur = make(map[string]*progVerdicts, vs.max)
		vs.rotations.Add(1)
	}
	vs.cur[progCanon] = pv
}

// StoreStats is a point-in-time snapshot of the process-wide verdict
// store: how many program tables and memoized verdicts are live across the
// two generations, and the lookup/hit counters accumulated by every
// session since process start.
type StoreStats struct {
	// Programs is the number of live program tables (both generations,
	// deduplicated — a promoted table appears in both).
	Programs int
	// Verdicts is the total number of memoized rule verdicts across those
	// tables.
	Verdicts int
	// Lookups / Hits count per-rule memo probes; a hit answered a
	// containment test without any chase.
	Lookups, Hits uint64
	// Rotations counts generational turnovers of the outer store.
	Rotations uint64
}

// VerdictStoreStats snapshots the process-wide verdict store. It is safe to
// call concurrently with any number of running sessions.
func VerdictStoreStats() StoreStats {
	return defaultVerdicts.stats()
}

func (vs *verdictStore) stats() StoreStats {
	st := StoreStats{
		Lookups:   vs.lookups.Load(),
		Hits:      vs.hits.Load(),
		Rotations: vs.rotations.Load(),
	}
	vs.mu.Lock()
	seen := make(map[*progVerdicts]bool, len(vs.cur)+len(vs.prev))
	for _, pv := range vs.cur {
		seen[pv] = true
	}
	for _, pv := range vs.prev {
		seen[pv] = true
	}
	vs.mu.Unlock()
	st.Programs = len(seen)
	for pv := range seen {
		pv.mu.Lock()
		st.Verdicts += len(pv.m)
		pv.mu.Unlock()
	}
	return st
}

// get returns the memoized verdict of ruleCanon and whether there is one.
func (pv *progVerdicts) get(ruleCanon []byte) (contained, ok bool) {
	pv.mu.Lock()
	contained, ok = pv.m[string(ruleCanon)]
	pv.mu.Unlock()
	if pv.store != nil {
		pv.store.lookups.Add(1)
		if ok {
			pv.store.hits.Add(1)
		}
	}
	return contained, ok
}

func (pv *progVerdicts) put(ruleCanon []byte, contained bool) {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	pv.m[string(ruleCanon)] = contained
}
