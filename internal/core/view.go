package core

import (
	"context"
	"sync"

	"repro/internal/eval"
)

// Incremental view maintenance at the facade: a View is a materialized
// output kept consistent with its input under fact-level mutation batches
// (delete-rederive for every schedule unit — internal/eval/maintain.go). Sessions hand out views via Materialize and
// fold every Apply's work into their accounted totals, so /statz-style
// aggregation covers maintenance exactly like evaluation.

// DatabaseDelta is one batch of fact-level input mutations, set-semantics:
// retracting an absent fact and asserting a present one are no-ops, and a
// fact both retracted and asserted in one batch nets to "present".
type DatabaseDelta = eval.Delta

// MaintainOptions is ignored: a maintained view has no setting. It stays
// only because bench/ constructs it, and only a change to the benchmark may
// edit bench/.
type MaintainOptions struct{}

// View is a maintained materialization of the session's program over one
// input database. Its mutex is the concurrency contract of Apply, Output and
// Input: Apply is serialized on it, and Output and Input return frozen
// databases that remain valid (as that version) across later Applies, so
// readers never block writers.
type View struct {
	s *Session

	mu sync.Mutex
	m  *eval.Maintained
}

// Materialize evaluates the session program over input and returns a
// maintained view of the result. Every call returns an independent handle —
// callers maintaining several inputs (tenants) hold one View each; the
// session keeps no reference to it. The MaintainOptions are ignored; only
// bench/ passes one.
func (s *Session) Materialize(ctx context.Context, input *Database, _ ...MaintainOptions) (*View, EvalStats, error) {
	m, st, err := s.prep.Materialize(ctx, input)
	s.account(st)
	if err != nil {
		return nil, st, err
	}
	return &View{s: s, m: m}, st, nil
}

// Apply absorbs one mutation batch into the view's input, maintains the
// materialized output, and returns the exact net output diff in canonical
// order. Serialized per view; a failed Apply (cancellation) leaves the view
// on its previous version.
func (v *View) Apply(ctx context.Context, delta DatabaseDelta) (eval.Diff, EvalStats, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	diff, st, err := v.m.Apply(ctx, delta)
	v.s.account(st)
	return diff, st, err
}

// Output returns the current materialized output as a frozen database.
func (v *View) Output() *Database {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m.Output()
}

// Input returns the view's current input database (frozen).
func (v *View) Input() *Database {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m.Input()
}
