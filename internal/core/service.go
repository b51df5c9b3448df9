package core

import (
	"context"
	"sync"

	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/minimize"
)

// This file is the session-oriented service layer of the facade: long-lived
// handles over program versions, built for servers that answer many requests
// against the same programs. A Session bundles the prepared evaluation plan
// and one lazily built uniform-containment checker behind one concurrency
// contract:
//
//   - Eval / EvalWith / Query / Explain / Minimize are safe for any number
//     of concurrent callers (the Prepared plan is immutable; Minimize builds
//     its own checkers);
//   - Compare takes the two sessions' mutexes strictly sequentially (one
//     direction at a time, never nested; a checker is a single-threaded
//     state machine), so any set of sessions can be cross-compared from any
//     number of goroutines without lock-order deadlocks.
//
// Every method takes a context observed at round/combination boundaries; a
// cancelled request returns an error wrapping eval.ErrCanceled and never
// publishes partial verdicts into the shared plan/verdict stores.

// Session is a long-lived handle over one program version: the prepared
// evaluation plan plus one lazily built containment checker.
// The plan comes from the process-wide plan cache, so sessions over
// canonically equal programs share it, while each session keeps its caller's
// program. See the file comment for the concurrency contract.
type Session struct {
	prog *Program
	prep *eval.Prepared

	mu sync.Mutex // serializes the single-threaded checker
	ck *chase.Checker
	// last is the checker's cumulative Stats at the previous accounting, so
	// each request folds only its own delta into the totals. Guarded by s.mu
	// like the checker.
	last EvalStats

	statsMu sync.Mutex
	total   EvalStats
	evals   uint64
}

// NewSession prepares p and returns a session handle over it.
func NewSession(p *Program) (*Session, error) {
	prep, err := eval.DefaultPlanCache.Prepare(p)
	if err != nil {
		return nil, err
	}
	// Keep the caller's rules (cloned against mutation) rather than the
	// prepared program: a cache hit may return the plan of an alpha-renamed
	// twin, whose variable names Minimize and Explain would otherwise print.
	return &Session{prog: p.Clone(), prep: prep}, nil
}

// Prepared returns the session's prepared plan for direct use.
func (s *Session) Prepared() *eval.Prepared { return s.prep }

// Eval computes P(input) under ctx: EvalWith without a budget. Safe for
// concurrent callers; input is not modified (evaluate frozen snapshots via
// Snapshot.Thaw).
func (s *Session) Eval(ctx context.Context, input *Database) (*Database, EvalStats, error) {
	return s.EvalWith(ctx, input, 0)
}

// EvalWith is Eval under a derived-fact budget: maxDerived > 0 bounds the
// facts derived beyond the input, returning an error wrapping ErrBudget when
// exhausted. Every evaluation of a session runs the one plan it was opened
// with; a request cannot select another.
func (s *Session) EvalWith(ctx context.Context, input *Database, maxDerived int) (*Database, EvalStats, error) {
	out, _, st, err := s.prep.Run(ctx, input, nil, maxDerived)
	s.account(st)
	return out, st, err
}

// Query evaluates under ctx and filters: the tuples of the query atom's
// relation that match its constants. A query whose arity contradicts the
// program or the input is an error wrapping eval.ErrArity, returned before
// anything is evaluated. Safe for concurrent callers.
func (s *Session) Query(ctx context.Context, input *Database, query Atom) ([][]Const, EvalStats, error) {
	if err := s.prep.CheckAtom(input, query.Pred, len(query.Args)); err != nil {
		return nil, EvalStats{}, err
	}
	out, st, err := s.Eval(ctx, input)
	if err != nil {
		return nil, st, err
	}
	return db.Select(out, query), st, nil
}

// Explain returns a derivation tree for goal over P(input), or false when
// goal is not derivable. The evaluation is goal-directed — it halts the
// moment goal is derived — and the proof is read back from its round stamps
// (internal/explain), so an explanation costs an evaluation cut short plus
// one backwards join per node of the tree. Rule indexes and variable names
// in the tree are those of the program passed to NewSession. Safe for
// concurrent callers.
func (s *Session) Explain(ctx context.Context, input *Database, goal GroundAtom) (*explain.Derivation, bool, error) {
	out, reached, st, err := s.prep.Run(ctx, input, &goal, 0)
	var d *explain.Derivation
	if reached {
		pr := explain.Over(s.prog, s.prep, input, out)
		d, reached = pr.Explain(goal)
		st.Add(pr.Stats())
	}
	s.account(st)
	return d, reached, err
}

// Minimize runs Fig. 2 minimization of the session program under ctx, with
// or without stratified negation.
func (s *Session) Minimize(ctx context.Context, opts MinimizeOptions) (*Program, minimize.Trace, error) {
	q, trace, err := minimize.Program(ctx, s.prog, opts)
	s.account(trace.Stats)
	return q, trace, err
}

// checker lazily builds the containment session; callers hold s.mu.
func (s *Session) checker() (*chase.Checker, error) {
	if s.ck == nil {
		ck, err := chase.NewChecker(s.prog)
		if err != nil {
			return nil, err
		}
		s.ck = ck
	}
	return s.ck, nil
}

// contains decides P₂ ⊑ᵘ P for the session program P, serialized on s.mu.
func (s *Session) contains(ctx context.Context, p2 *Program) (chase.Verdict, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, err := s.checker()
	if err != nil {
		return chase.Unknown, err
	}
	v, _, err := ck.Contains(ctx, p2)
	s.accountChecker()
	return v, err
}

// Compare decides uniform equivalence of the two sessions' programs. The
// two containment directions run strictly one after the other, each under
// its own session's mutex — never nested — so concurrent Compare calls
// over any session pairs cannot deadlock. A bool cannot say Unknown, so
// negation on either side is refused with chase.ErrNegation.
func (s *Session) Compare(ctx context.Context, other *Session) (bool, error) {
	if s.prog.HasNegation() || other.prog.HasNegation() {
		return false, chase.ErrNegation
	}
	v, err := s.contains(ctx, other.prog)
	if err != nil || v == chase.No {
		return false, err
	}
	w, err := other.contains(ctx, s.prog)
	return v.And(w) == chase.Yes, err
}

// accountChecker folds what the checker did since the last accounting into
// the session totals; the caller holds s.mu.
func (s *Session) accountChecker() {
	cur := s.ck.Stats()
	s.account(cur.Sub(s.last))
	s.last = cur
}

// account folds one request's stats into the session totals.
func (s *Session) account(st EvalStats) {
	s.statsMu.Lock()
	s.total.Add(st)
	s.evals++
	s.statsMu.Unlock()
}

// Stats returns the session's accumulated evaluation statistics and the
// number of accounted requests.
func (s *Session) Stats() (EvalStats, uint64) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.total, s.evals
}
