package chase

import (
	"sync"
	"sync/atomic"

	"repro/internal/twoq"
)

// The verdict store is a content-addressed memo of uniform-containment
// verdicts: program canonical form → (rule canonical form → verdict). The
// verdict of r ⊑ᵘ P is invariant under renaming either side, so sessions,
// the Fig. 1/2 loops and repeated requests share it: a new Checker over a
// program seen before answers without chasing. Every entry was stored by a
// ContainsRule run over the table's own program; nothing copies verdicts
// between programs.
//
// A Checker resolves its program's table once, so the per-test key is just
// the rule's canonical form. Both levels are looked up by a key the Checker
// appends into a scratch buffer, without allocating; a string is made only
// when a table or a verdict is stored.
//
// At most verdictStoreSize tables are resident, under the 2Q policy
// (package twoq): the tables of a program seen once, such as the masked
// subprograms of a one-off minimization, stay in probation, out of the way
// of the programs that recur. A session holding an evicted table keeps
// using it; new sessions no longer find it.
type verdictStore struct {
	tables *twoq.Cache[*progVerdicts]
	// Per-rule probes, atomics so that a stats snapshot does not contend
	// with the lookups of concurrent sessions.
	lookups, hits atomic.Uint64
}

// progVerdicts is the verdict table of one program. Sessions over
// canonically equal programs may run concurrently, so it has its own lock.
type progVerdicts struct {
	store *verdictStore // owning store, for race-clean hit accounting
	mu    sync.Mutex
	m     map[string]bool
}

const verdictStoreSize = 2048

func newVerdictStore() *verdictStore {
	return &verdictStore{tables: twoq.New[*progVerdicts](verdictStoreSize)}
}

var defaultVerdicts = newVerdictStore()

// forProgram returns the (shared) verdict table for the program with the
// given canonical form, creating it if needed.
func (vs *verdictStore) forProgram(progCanon []byte) *progVerdicts {
	if pv, ok := vs.tables.GetBytes(progCanon); ok {
		return pv
	}
	return vs.tables.Put(string(progCanon), &progVerdicts{store: vs, m: make(map[string]bool)})
}

// StoreStats is a point-in-time snapshot of the process-wide verdict store:
// the resident program tables and the rule verdicts memoized in them, and,
// since process start, the per-rule probes, their hits (each answered a
// containment test without any chase) and the tables evicted.
type StoreStats struct {
	Programs, Verdicts       int
	Lookups, Hits, Evictions uint64
}

// VerdictStoreStats snapshots the process-wide verdict store. It is safe to
// call concurrently with any number of running sessions.
func VerdictStoreStats() StoreStats {
	vs := defaultVerdicts
	tables := vs.tables.Values()
	st := StoreStats{
		Programs:  len(tables),
		Lookups:   vs.lookups.Load(),
		Hits:      vs.hits.Load(),
		Evictions: vs.tables.Stats().Evictions,
	}
	for _, pv := range tables {
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
	pv.store.lookups.Add(1)
	if ok {
		pv.store.hits.Add(1)
	}
	return contained, ok
}

func (pv *progVerdicts) put(ruleCanon []byte, contained bool) {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	pv.m[string(ruleCanon)] = contained
}
