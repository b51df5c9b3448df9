// Package constraint checks tuple-generating dependencies against concrete
// databases — the satisfaction relation of Section VIII ("a DB d satisfies
// a tgd τ if for every instantiation θ of the universally quantified
// variables … the right-hand side can also be instantiated") that Example 9
// walks through. Besides powering tests, it gives downstream users a
// standalone integrity checker: list every violation of a constraint set,
// or repair a database by chasing the violations away.
package constraint

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
)

// Violation is one witnessed failure: the instantiation of the tgd's
// left-hand side for which no right-hand-side extension exists.
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

// Satisfies reports whether d satisfies every tgd of T.
func Satisfies(d *db.Database, tgds []ast.TGD) bool { return chase.Satisfies(d, tgds) }

// Violations returns every violation of the tgds in d, up to max (0 means
// unlimited). Violations of the same tgd with different instantiations are
// reported separately.
func Violations(d *db.Database, tgds []ast.TGD, max int) []Violation {
	var out []Violation
	// A standalone check belongs to no lineage: its join counts are dropped.
	chase.LowerTGDs(tgds).EachViolation(context.Background(), d, new(eval.Stats), func(t int, vals []ast.Const) bool {
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

// Repair closes d under the tgds (no program rules), adding facts — with
// labeled nulls for existential variables — until every constraint holds
// or the budget runs out. It is the pure-tgd special case of the
// Section VIII chase. The returned Result reports completion.
func Repair(d *db.Database, tgds []ast.TGD, budget chase.Budget) (chase.Result, error) {
	return chase.Apply(ast.NewProgram(), tgds, d, budget)
}
