package eval

// Stats is the repository's one counter set: every layer that reports work
// — a single evaluation, a maintained view's Apply, a containment or
// preservation session, the service-wide /v1/statz totals — fills, sums and
// differences this struct and nothing else. The counters are grouped into
// embedded sub-structs by the layer that increments them; field promotion
// keeps st.Firings-style access, and each leaf's json tag IS its wire name
// (the server marshals Stats directly). Adding a counter is one leaf here
// plus one entry in leaves; TestStatsAddSubCoverEveryField fails when the
// two disagree. TUTORIAL.md's counters table documents every leaf.
//
// A single evaluation fills the fixpoint and stream groups and leaves
// the rest zero; sessions fill the reuse and chase groups and fold their
// internal evaluations in whole (Add).
type Stats struct {
	FixpointStats
	ReuseStats
	StreamStats
	MaintainStats
	ChaseStats
}

// FixpointStats counts the fixpoint iteration itself.
type FixpointStats struct {
	// Rounds is the number of fixpoint iterations (including the final empty
	// one that detects convergence; a unit with no rule that can fire runs
	// none). Session totals sum the rounds of every internal evaluation — a
	// [P, T] chase's Datalog phases among them — plus, for preservation
	// sessions, one per round Fig. 3 runs on chase.TGDs.Chase, whose phase
	// is one Pⁿ step rather than a fixpoint.
	Rounds int `json:"rounds"`
	// Firings is the number of successful body instantiations, i.e. the
	// joins' output size (including duplicates that derived a known fact).
	Firings int `json:"firings"`
	// Added is the number of new facts derived.
	Added int `json:"added"`
}

// ReuseStats counts what a session lineage reused versus rebuilt.
type ReuseStats struct {
	// PrepareHits / PrepareMisses count plan-cache lookups made on the
	// lineage's behalf (Lineage.Prepare): a hit reused an existing
	// *Prepared, a miss had to build one (by full preparation or by
	// delta-patching an existing plan).
	PrepareHits   int `json:"prepare_hits"`
	PrepareMisses int `json:"prepare_misses"`
	// VerdictsReused / VerdictsRecomputed count containment verdicts
	// answered from the verdict store of the session's own program versus
	// decided by running a fresh goal-directed chase.
	VerdictsReused     int `json:"verdicts_reused"`
	VerdictsRecomputed int `json:"verdicts_recomputed"`
	// VerdictsSubsumed counts containment verdicts forced syntactically —
	// the tested rule is θ-subsumed by a rule of the containing program (or
	// is a tautology), so the chase was skipped entirely.
	VerdictsSubsumed int `json:"verdicts_subsumed"`
}

// StreamStats counts the operator pipeline's work.
type StreamStats struct {
	// StrataStreamed / StrataMaterialized count fixpoint units — one per
	// strongly connected component with rules, negation or not — by how they
	// converged: StrataStreamed reached their fixpoint in one pass (no rule
	// reads the unit's own heads, so semi-naive runs one full application
	// and no confirmation round), StrataMaterialized needed delta rounds
	// (recursive units). The names predate the single kernel and the one
	// SCC schedule; both kinds run on the same pipeline.
	StrataStreamed     int `json:"strata_streamed"`
	StrataMaterialized int `json:"strata_materialized"`
	// BindingsPipelined counts every tuple successfully bound by a pipeline
	// operator, in every round of every unit: the joins' total
	// intermediate-result size.
	BindingsPipelined int `json:"bindings_pipelined"`
	// EarlyStopCuts counts rounds cut mid-pipeline by a goal hit,
	// an exhausted derived-fact budget or a cancellation.
	EarlyStopCuts int `json:"early_stop_cuts"`
}

// MaintainStats counts incremental view maintenance (Maintained.Apply).
type MaintainStats struct {
	// Applies counts Maintained.Apply batches absorbed by a maintained view.
	Applies int `json:"applies"`
	// CountAdjusted is always 0. It counted the derivation-count updates of
	// the deleted counting maintenance; the field and its wire key stay until
	// bench/ stops reading them.
	CountAdjusted int `json:"count_adjusted"`
	// Overdeleted / Rederived count the facts DRed first over-deleted (in
	// every unit) and then restored from surviving support (recursive units
	// only: a non-recursive one deletes only what has no firing left).
	Overdeleted int `json:"overdeleted"`
	Rederived   int `json:"rederived"`
	// RelationsFrozen / FreezeSkipped count, per maintenance batch, the
	// relations the snapshot layer had to seal and share as a new version
	// (the batch wrote them) versus those the dirty-set check proved
	// untouched since the previous freeze.
	RelationsFrozen int `json:"relations_frozen"`
	FreezeSkipped   int `json:"freeze_skipped"`
	// TuplesCopied counts the tuples the store physically copied for the
	// batches: the tails copy-on-write duplicated and the live tuples flatten
	// rebuilt (db.Database.TuplesCopied). Against the size of the written
	// relations it says whether mutation cost followed the batch or the data.
	TuplesCopied int `json:"tuples_copied"`
}

// ChaseStats counts how the [P, T] chases of a containment session were
// bounded.
type ChaseStats struct {
	// ChasesBudgetFree / ChasesBudgetBounded count chase runs whose limits
	// came from a termination-classification-derived bound (the set provably
	// reaches a fixpoint) versus runs bounded by a raw caller or default
	// budget, where exhaustion is indistinguishable from divergence.
	ChasesBudgetFree    int `json:"chases_budget_free"`
	ChasesBudgetBounded int `json:"chases_budget_bounded"`
}

// leaves is the single enumeration of the counter set, in declaration
// order: Add and Sub walk it, so a counter listed here is summed and
// differenced everywhere stats flow.
func (s *Stats) leaves() [21]*int {
	return [...]*int{
		&s.Rounds, &s.Firings, &s.Added,
		&s.PrepareHits, &s.PrepareMisses, &s.VerdictsReused, &s.VerdictsRecomputed, &s.VerdictsSubsumed,
		&s.StrataStreamed, &s.StrataMaterialized, &s.BindingsPipelined, &s.EarlyStopCuts,
		&s.Applies, &s.CountAdjusted, &s.Overdeleted, &s.Rederived, &s.RelationsFrozen, &s.FreezeSkipped, &s.TuplesCopied,
		&s.ChasesBudgetFree, &s.ChasesBudgetBounded,
	}
}

// Add accumulates every counter of o into s.
func (s *Stats) Add(o Stats) {
	src := o.leaves()
	for i, p := range s.leaves() {
		*p += *src[i]
	}
}

// Sub returns the counter-wise difference s − o: what happened between two
// snapshots of one cumulative Stats.
func (s Stats) Sub(o Stats) Stats {
	src := o.leaves()
	for i, p := range s.leaves() {
		*p -= *src[i]
	}
	return s
}
