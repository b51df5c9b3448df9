package eval

import (
	"container/list"
	"sync"

	"repro/internal/ast"
)

// PlanCache is a content-addressed cache of prepared evaluation plans:
// canonical-form hash of an ast.Program → *Prepared. The
// minimization loops, the CLI/REPL and the harness all evaluate streams of
// programs that repeat — candidate deletions revisit identical subprograms,
// a long-lived server sees the same program across requests — and preparing
// is pure program analysis, so identical inputs can share one plan.
//
// Lookups verify the full canonical string on every hash hit, so a hash
// collision degrades to a miss instead of silently returning the wrong
// plan (the injectivity fuzz test in internal/ast keeps the hash honest,
// the verification keeps the cache honest even if the hash is not).
// Entries are evicted LRU beyond the capacity bound, so a REPL or server
// that prepares an unbounded stream of distinct programs holds at most
// maxEntries plans. A PlanCache is safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	buckets map[uint64][]*list.Element

	hits, misses, evictions uint64
}

// planEntry is one cached plan, addressed by the canonical program string.
type planEntry struct {
	hash  uint64
	canon string
	prep  *Prepared
}

// DefaultPlanCacheSize bounds the shared cache; generous for the
// optimization pipelines while keeping a long-lived REPL's footprint flat.
const DefaultPlanCacheSize = 256

// DefaultPlanCache is the process's one plan cache: every session lineage,
// the server's sessions, the CLI/REPL and the harness prepare through it.
var DefaultPlanCache = NewPlanCache(DefaultPlanCacheSize)

// NewPlanCache returns a cache bounded to max entries (max ≤ 0 selects
// DefaultPlanCacheSize).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = DefaultPlanCacheSize
	}
	return &PlanCache{max: max, order: list.New(), buckets: make(map[uint64][]*list.Element)}
}

// CacheStats is a point-in-time snapshot of cache behavior.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Stats returns a snapshot of the cache counters.
func (pc *PlanCache) Stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{Hits: pc.hits, Misses: pc.misses, Evictions: pc.evictions, Entries: pc.order.Len()}
}

// Prepare returns the cached plan for p or prepares, caches and returns a
// fresh one. The canonical program is the whole address.
func (pc *PlanCache) Prepare(p *ast.Program) (*Prepared, error) {
	prep, _, err := pc.GetOrBuildCanonical(p.CanonicalString(), func() (*Prepared, error) { return Prepare(p) })
	return prep, err
}

// GetOrBuildCanonical returns the plan cached under a program's canonical
// form, or caches and returns the plan produced by build; the
// boolean reports a cache hit. It is the general entry session lineages use
// (Lineage.Prepare): a session renders the canonical form once from per-rule
// lines it keeps for its verdict tables as well, so the built plan's program
// need only be canonically equal to canon.
func (pc *PlanCache) GetOrBuildCanonical(canon string, build func() (*Prepared, error)) (*Prepared, bool, error) {
	hash := ast.HashString(canon)

	pc.mu.Lock()
	if el := pc.lookup(hash, canon); el != nil {
		pc.order.MoveToFront(el)
		pc.hits++
		prep := el.Value.(*planEntry).prep
		pc.mu.Unlock()
		return prep, true, nil
	}
	pc.misses++
	pc.mu.Unlock()

	// Build outside the lock: preparation can be arbitrarily large and must
	// not serialize unrelated lookups. A racing duplicate build is harmless
	// — insert re-checks and keeps the first plan.
	prep, err := build()
	if err != nil {
		return nil, false, err
	}
	return pc.insert(&planEntry{hash: hash, canon: canon, prep: prep}), false, nil
}

// lookup finds the entry matching hash AND full canonical content; caller
// holds the lock.
func (pc *PlanCache) lookup(hash uint64, canon string) *list.Element {
	for _, el := range pc.buckets[hash] {
		e := el.Value.(*planEntry)
		if e.canon == canon {
			return el
		}
	}
	return nil
}

// insert stores e unless an equivalent entry landed first, evicting from
// the LRU tail past capacity; it returns the plan now cached for e's key.
func (pc *PlanCache) insert(e *planEntry) *Prepared {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el := pc.lookup(e.hash, e.canon); el != nil {
		pc.order.MoveToFront(el)
		return el.Value.(*planEntry).prep
	}
	el := pc.order.PushFront(e)
	pc.buckets[e.hash] = append(pc.buckets[e.hash], el)
	for pc.order.Len() > pc.max {
		back := pc.order.Back()
		pc.order.Remove(back)
		old := back.Value.(*planEntry)
		bucket := pc.buckets[old.hash]
		for i, bel := range bucket {
			if bel == back {
				bucket = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(bucket) == 0 {
			delete(pc.buckets, old.hash)
		} else {
			pc.buckets[old.hash] = bucket
		}
		pc.evictions++
	}
	return e.prep
}

// Lineage is the plumbing every session lineage shares: one cumulative Stats
// over plan lookups in DefaultPlanCache. The containment and preservation
// sessions embed it and differ only in what they memoize; sessions opened in
// a lineage for another program (the minimizer's rule-phase session,
// equivopt's per-weakening sessions) and sessions built side by side over one
// program (core.Session) copy the Lineage value, so work done while probing a
// candidate that is then discarded still shows up in the totals. A Lineage is
// as single-threaded as the sessions sharing it.
type Lineage struct {
	stats *Stats
}

// NewLineage starts a lineage with zeroed counters.
func NewLineage() Lineage { return Lineage{stats: new(Stats)} }

// Prepare is the lineage's one counted plan lookup: it returns the plan
// cached under canon (a program's canonical form) or caches the one build
// produces, and records the hit or miss.
func (l Lineage) Prepare(canon string, build func() (*Prepared, error)) (*Prepared, error) {
	prep, hit, err := DefaultPlanCache.GetOrBuildCanonical(canon, build)
	if err != nil {
		return nil, err
	}
	if hit {
		l.stats.PrepareHits++
	} else {
		l.stats.PrepareMisses++
	}
	return prep, nil
}

// Tally is the lineage's live counter block, for the embedding session to
// bump its own counters and fold its internal evaluations into.
func (l Lineage) Tally() *Stats { return l.stats }

// Stats snapshots the lineage's cumulative counters: plan lookups, reused
// and recomputed verdicts, and the whole Stats of every internal evaluation.
// Not safe to call concurrently with a running session of the lineage.
func (l Lineage) Stats() Stats { return *l.stats }
