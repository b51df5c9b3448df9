package chase

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
)

// The tgd half of the [P, T] chase (Section VIII) on the join kernel. A tgd
// φ(x̄) → ∃z̄ ψ(x̄, z̄) lowers to two headless plans (eval.Conj) over one slot
// frame [x̄ | z̄]: φ as written, which enumerates the triggers, and ψ with x̄
// pre-bound, the restricted-chase guard — a trigger is violated when the
// guard finds no row. Value invention happens after the join, outside the
// kernel: firing fills the z̄ slots with fresh nulls and grounds ψ from the
// frame.
//
// φ is lowered in source order on purpose: triggers then arrive in the order a
// nested-loops join over φ as written produces them, which is the order nulls
// are named in. Reordering φ would rename the nulls of every chase result
// (goldens and digests included) and is its own change.

// TGDs is a tgd set lowered once. It depends on the tgds alone and is
// immutable, so one handle serves every round of every chase over the set.
type TGDs struct{ plans []tgdPlan }

// tgdPlan is one lowered tgd; its frame holds t.UniversalVars() in the first
// nUniv slots, then t.ExistentialVars(). nRhs counts the atoms of t.Rhs.
type tgdPlan struct {
	lhs, rhs    *eval.Conj
	nUniv, nRhs int
}

// LowerTGDs lowers tgds onto the join kernel.
func LowerTGDs(tgds []ast.TGD) *TGDs {
	ts := &TGDs{plans: make([]tgdPlan, len(tgds))}
	for i, t := range tgds {
		univ := t.UniversalVars()
		ts.plans[i] = tgdPlan{lhs: eval.LowerConj(t.Lhs, nil), rhs: eval.LowerConj(t.Rhs, univ), nUniv: len(univ), nRhs: len(t.Rhs)}
	}
	return ts
}

// halt is the guard's yield: one row decides it.
func halt() bool { return false }

// each hands f every violated trigger of the tgd in d, in frame, and reports
// whether the enumeration ran to its end. The context is polled once per
// eval.CtxCheckEvery triggers, violated or not — the cadence of the
// evaluator's emit path — so a wide left-hand side is cut within that many
// rows of a cancellation.
func (p *tgdPlan) each(ctx context.Context, d *db.Database, frame []ast.Const, st *eval.Stats, f func() bool) (bool, error) {
	var err error
	tick := 0
	done := p.lhs.Each(d, frame, st, func() bool {
		if tick++; tick%eval.CtxCheckEvery == 0 {
			if err = eval.CtxErr(ctx); err != nil {
				return false
			}
		}
		return !p.rhs.Each(d, frame, st, halt) || f()
	})
	return done, err
}

// EachViolation hands f every violated instantiation in d of every tgd of the
// set, tgd by tgd (Section VIII): theta instantiates tgd t's UniversalVars(),
// in that order, so that the left-hand side grounds into d while no extension
// grounds the right-hand side there. theta is the live frame — copy to keep.
// f returning false ends the enumeration, which EachViolation then reports; a
// canceled ctx ends it with an error wrapping eval.ErrCanceled. The joins
// land in st.
func (ts *TGDs) EachViolation(ctx context.Context, d *db.Database, st *eval.Stats, f func(t int, theta []ast.Const) bool) (bool, error) {
	for i := range ts.plans {
		p := &ts.plans[i]
		frame := make([]ast.Const, len(p.rhs.Vars()))
		if done, err := p.each(ctx, d, frame, st, func() bool { return f(i, frame[:p.nUniv]) }); !done || err != nil {
			return false, err
		}
	}
	return true, nil
}

// Violation is one witnessed failure of a tgd in a database (Example 9): the
// instantiation of its left-hand side for which no right-hand-side extension
// exists.
type Violation struct {
	// TGD is the violated dependency.
	TGD ast.TGD
	// LHS is the instantiated left-hand side.
	LHS []ast.GroundAtom
	// Binding is the universal-variable instantiation θ.
	Binding ast.Binding
}

// String renders the violation.
func (v Violation) String() string {
	parts := make([]string, len(v.LHS))
	for i, g := range v.LHS {
		parts[i] = g.String()
	}
	return fmt.Sprintf("%s violated at %s", v.TGD, strings.Join(parts, ", "))
}

// Violations returns every violation of the tgds in d, up to max (0 means
// unlimited). Violations of the same tgd with different instantiations are
// reported separately.
func Violations(d *db.Database, tgds []ast.TGD, max int) []Violation {
	var out []Violation
	// A standalone check belongs to no lineage: its join counts are dropped.
	LowerTGDs(tgds).EachViolation(context.Background(), d, new(eval.Stats), func(t int, vals []ast.Const) bool {
		theta := make(ast.Binding, len(vals))
		for i, v := range tgds[t].UniversalVars() {
			theta[v] = vals[i]
		}
		lhs, err := ast.GroundAtoms(tgds[t].Lhs, theta)
		if err != nil {
			return true // unreachable: the match bound every variable
		}
		out = append(out, Violation{TGD: tgds[t].Clone(), LHS: lhs, Binding: theta})
		return max <= 0 || len(out) < max
	})
	return out
}

func (ts *TGDs) satisfies(d *db.Database, st *eval.Stats) bool {
	ok, _ := ts.EachViolation(context.Background(), d, st, func(int, []ast.Const) bool { return false })
	return ok
}

// Satisfies reports whether every tgd holds in d: each grounding of a LHS
// extends to a grounding of its RHS.
func Satisfies(d *db.Database, tgds []ast.TGD) bool {
	return LowerTGDs(tgds).satisfies(d, new(eval.Stats))
}

// ApplyRound applies every tgd of the set once to each violated
// instantiation of its universally quantified variables (Section VIII: an
// instantiation θ fires when the LHS grounds into d and no extension of θ
// grounds the RHS into d; existential variables then take fresh nulls). It
// mutates d and returns the number of facts added. It is one round of the
// restricted chase; the Fig. 3 preservation procedure interleaves it with
// Pⁿ(d) computations. A canceled ctx ends the round with an error wrapping
// eval.ErrCanceled and d part-way through it: the caller discards d.
func (ts *TGDs) ApplyRound(ctx context.Context, d *db.Database, nullGen *ast.ConstGen, st *eval.Stats) (int, error) {
	added := 0
	var pending, buf []ast.Const // pending triggers, nUniv constants each
	for i := range ts.plans {
		p := &ts.plans[i]
		frame := make([]ast.Const, len(p.rhs.Vars()))
		pending = pending[:0]
		n := 0
		if _, err := p.each(ctx, d, frame, st, func() bool {
			pending = append(pending, frame[:p.nUniv]...)
			n++
			return true
		}); err != nil {
			return added, err
		}
		for k := 0; k < n; k++ {
			copy(frame, pending[k*p.nUniv:(k+1)*p.nUniv])
			// An earlier firing in this round may have satisfied this
			// instantiation; the restricted chase re-checks before firing.
			if !p.rhs.Each(d, frame, st, halt) {
				continue
			}
			for z := p.nUniv; z < len(frame); z++ {
				frame[z] = nullGen.Fresh()
			}
			for j := 0; j < p.nRhs; j++ {
				var pred string
				pred, buf = p.rhs.Ground(j, buf, frame)
				if d.AddTuple(pred, buf) {
					added++
				}
			}
		}
	}
	return added, nil
}
