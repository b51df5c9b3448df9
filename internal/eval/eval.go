// Package eval implements the bottom-up computation of Section III: given a
// program P and an input DB (which, per the paper's uniform semantics, may
// assign initial relations to intentional as well as extensional
// predicates), repeatedly instantiate rules until no new ground atoms can be
// produced. The fixpoint is computed semi-naively (each derivation
// considered once); the paper's own reading — apply every rule to everything,
// until nothing new appears — is the one-step operator Pⁿ(d) of Section IX
// iterated, which the package exports as NonRecursive alongside the
// initialization program Pⁱ and preliminary DB of Section X, and — for the
// Section XII extension — stratified negation.
package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
)

// ErrBudget is returned when evaluation exceeds the derived-fact budget
// passed to Prepared.Run.
var ErrBudget = errors.New("eval: derived-fact budget exhausted")

// ErrCanceled is returned when an evaluation's context is canceled or its
// deadline expires. Cancellation is checked at round boundaries and — with a
// small cadence — on the emit path, extending the in-round derived-fact budget
// discipline: a round that would run long past a deadline is cut mid-stream,
// not at its end. Errors wrap both ErrCanceled and the context's own error,
// so errors.Is works against ErrCanceled, context.Canceled and
// context.DeadlineExceeded alike.
var ErrCanceled = errors.New("eval: evaluation canceled")

// CtxErr converts a context's cancellation state into the package's typed
// error (nil context or live context → nil). Session layers embedding
// evaluation in longer procedures (the containment chases, minimization,
// preservation checks) use it for their own between-call checks so every
// layer reports cancellation identically.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// CtxCheckEvery is the emit-path cancellation cadence: the context is polled
// once per this many head emissions (new facts and duplicates alike),
// keeping the check off the per-tuple hot path while bounding how much work
// a canceled evaluation can still do. A caller of Conj.Each that enumerates
// under a context (the chase's tgd phase) polls CtxErr at the same cadence.
const CtxCheckEvery = 128

// Eval computes P(input): the least DB containing input and closed under the
// rules of p (Section III). The input database is not modified; the returned
// database contains the input, matching the paper's convention that "the
// output of every program contains its input".
//
// Eval is the one-shot entry point: it is Prepare followed by a single
// Prepared.Eval. Callers evaluating the same program repeatedly should
// Prepare once and reuse the Prepared.
func Eval(p *ast.Program, input *db.Database) (*db.Database, Stats, error) {
	pr, err := Prepare(p)
	if err != nil {
		return nil, Stats{}, err
	}
	return pr.Eval(input)
}

// MustEval is Eval panicking on error; intended for tests and examples where
// the program is known valid.
func MustEval(p *ast.Program, input *db.Database) *db.Database {
	out, _, err := Eval(p, input)
	if err != nil {
		panic(err)
	}
	return out
}

// anyAddedIn reports whether any fact of u's heads carries the given round
// stamp, the database's latest: a round of u adds only u's heads.
func anyAddedIn(d *db.Database, u *unit, round int32) bool {
	for p := range u.dynamic {
		r := d.Relation(p)
		if r == nil {
			continue
		}
		// Stamps are non-decreasing with insertion order.
		for i := r.LenAt(round - 1); i < r.Len(); i++ {
			if r.Alive(i) {
				return true
			}
		}
	}
	return false
}

// onePassOf wraps p for the schedule-free one-step operators; like MustEval
// it panics on an invalid program.
func onePassOf(p *ast.Program) *Prepared {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Prepared{prog: p, memos: newMemos(p.Rules)}
}

// NonRecursive computes Pⁿ(d) (Section IX) — see Prepared.NonRecursive.
func NonRecursive(p *ast.Program, d *db.Database) *db.Database {
	return onePassOf(p).NonRecursive(d)
}

// PreliminaryDB computes the preliminary DB of Section X for an EDB d: the
// union of d with Pⁱ(d), where Pⁱ consists of the initialization rules of p
// (rules whose bodies mention only extensional predicates). Pⁱ is
// non-recursive, so a single non-recursive application reaches its fixpoint.
func PreliminaryDB(p *ast.Program, edb *db.Database) *db.Database {
	out := edb.Clone()
	out.BeginRound()
	out.AddAll(NonRecursive(p.InitRules(), edb))
	return out
}

// IsModel reports whether d is a model of p (Section IV): applying p to d
// generates no ground atom outside d. For rules with negation the check uses
// the same stratified reading as Eval.
func IsModel(p *ast.Program, d *db.Database) bool {
	return onePassOf(p).IsClosed(d)
}

// Query evaluates p on input and returns the tuples of the result matching
// the query atom's pattern (constants filter; variables project). Tuples are
// returned in the result database's deterministic fact order. A query whose
// arity contradicts p or input is an error wrapping ErrArity.
func Query(p *ast.Program, input *db.Database, query ast.Atom) ([][]ast.Const, error) {
	pr, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	return pr.Query(input, query)
}
