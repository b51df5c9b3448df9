package eval

import (
	"repro/internal/ast"
	"repro/internal/twoq"
)

// PlanCache is a content-addressed cache of prepared evaluation plans:
// canonical form of an ast.Program → *Prepared. The minimization loops, the
// CLI/REPL and the server evaluate streams of programs that repeat, and
// preparing is pure program analysis, so canonically equal programs share
// one plan. Replacement is 2Q (package twoq): a program seen once — a
// one-off request, or a candidate probed twice within one operation — stays
// in probation and cannot push out the recurring working set. At most
// planCacheSize plans are resident. A PlanCache is safe for concurrent use.
type PlanCache struct {
	plans *twoq.Cache[*Prepared]
}

const planCacheSize = 256

// DefaultPlanCache is the process's one plan cache: every session lineage,
// the server's sessions, the CLI/REPL and the harness prepare through it.
var DefaultPlanCache = &PlanCache{plans: twoq.New[*Prepared](planCacheSize)}

// CacheStats is a point-in-time snapshot of cache behavior.
type CacheStats = twoq.Stats

// Stats returns a snapshot of the cache counters.
func (pc *PlanCache) Stats() CacheStats { return pc.plans.Stats() }

// Prepare returns the cached plan for p or prepares, caches and returns a
// fresh one. The canonical program is the whole address.
func (pc *PlanCache) Prepare(p *ast.Program) (*Prepared, error) {
	prep, _, err := pc.GetOrBuildCanonical(p.CanonicalString(), func() (*Prepared, error) { return Prepare(p) })
	return prep, err
}

// GetOrBuildCanonical returns the plan cached under a program's canonical
// form, or caches and returns the plan build produces; the boolean reports a
// cache hit. Session lineages (Lineage.Prepare) render canon from per-rule
// lines they keep anyway, so the built plan's program need only be
// canonically equal to canon.
func (pc *PlanCache) GetOrBuildCanonical(canon string, build func() (*Prepared, error)) (*Prepared, bool, error) {
	if prep, ok := pc.plans.Get(canon); ok {
		return prep, true, nil
	}
	// Build outside the lock; Put keeps the first of two racing builds.
	prep, err := build()
	if err != nil {
		return nil, false, err
	}
	return pc.plans.Put(canon, prep), false, nil
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
