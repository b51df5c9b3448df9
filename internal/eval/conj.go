package eval

import (
	"math"

	"repro/internal/ast"
	"repro/internal/db"
)

// Conj is a headless plan: a conjunction lowered once onto the operator
// pipeline, in the order given, with no head to emit into. It is how the
// joins outside rule application run on the one kernel — a tgd's left-hand
// side, its restricted-chase guard, the Fig. 3 re-check, a containment
// mapping between conjunctive queries. The caller owns the slot frame: the
// variables it names as bound take the leading slots and are filled in before
// Each runs, the others follow in order of first occurrence and are written
// by the pipeline. A Conj is immutable and safe for concurrent use; a frame
// is not.
type Conj struct{ sp *streamPlan }

// LowerConj lowers atoms, joined left to right as written, with the variables
// of bound (distinct) pre-bound: their first occurrence keys a probe instead
// of assigning. Source order is part of the contract — a scan walks ids
// ascending and a probe its chain oldest first, so rows arrive in the order a
// nested-loops join over the atoms as written produces them.
func LowerConj(atoms []ast.Atom, bound []string) *Conj {
	return &Conj{sp: lowerRule(ast.Rule{Body: atoms}, bound, len(bound), false)}
}

// Vars names the frame's slots. Callers must not modify it.
func (c *Conj) Vars() []string { return c.sp.vars }

// Each runs the conjunction against all of d over frame (len(Vars()) long,
// bound slots filled), calling yield once per row with the row in frame;
// yield returning false ends the run, and Each then returns false. d must
// not change meanwhile. The work lands in stats like any other join's
// (Firings counts rows). Each allocates nothing.
func (c *Conj) Each(d *db.Database, frame []ast.Const, stats *Stats, yield func() bool) bool {
	st := getStreamState()
	own := st.vals
	st.vals = frame[:len(c.sp.vars):len(c.sp.vars)]
	done := c.sp.run(d, fullSpan(math.MaxInt32), st, stats, yieldSink(yield))
	st.vals = own
	putStreamState(st)
	return done
}

// Ground instantiates the i-th atom from a full frame into dst (replaced
// when too short): the chase fires a tgd by grounding its right-hand side
// under the trigger plus one fresh null per existential slot.
func (c *Conj) Ground(i int, dst, frame []ast.Const) (pred string, args []ast.Const) {
	op := &c.sp.ops[i]
	if cap(dst) < op.arity {
		dst = make([]ast.Const, op.arity)
	}
	args = dst[:op.arity]
	for j, col := range op.cols {
		args[col] = op.keyConst[j]
		if s := op.keySrc[j]; s >= 0 {
			args[col] = frame[s]
		}
	}
	for _, act := range op.acts {
		args[act.col] = frame[act.slot]
	}
	return op.pred, args
}
