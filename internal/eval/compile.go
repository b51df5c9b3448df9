package eval

import "repro/internal/ast"

// Slot lowering is the operator pipeline's front end: variables become
// indexes into a flat []Const frame and atoms become (predicate,
// slot-or-constant) patterns, so the pipeline (stream.go) never touches a
// variable name or a binding map.

// compiledAtom is an atom over variable slots: args[i] ≥ 0 is a slot index,
// args[i] < 0 means constant consts[i].
type compiledAtom struct {
	pred   string
	args   []int
	consts []ast.Const
}

// compiledRule is a rule lowered to slots, body in evaluation order.
type compiledRule struct {
	nVars int
	head  compiledAtom
	body  []compiledAtom
	neg   []compiledAtom
}

// compileRule lowers r (whose body is already in the desired evaluation
// order) into slot form. Slots are numbered by first occurrence, after vars:
// a non-nil vars claims the leading slots in its order, so reorderings of
// one rule compiled with the same vars share a slot numbering.
func compileRule(r ast.Rule, vars []string) *compiledRule {
	slots := make(map[string]int, len(vars))
	for i, v := range vars {
		slots[v] = i
	}
	slotOf := func(v string) int {
		if i, ok := slots[v]; ok {
			return i
		}
		i := len(slots)
		slots[v] = i
		return i
	}
	lower := func(a ast.Atom) compiledAtom {
		ca := compiledAtom{
			pred:   a.Pred,
			args:   make([]int, len(a.Args)),
			consts: make([]ast.Const, len(a.Args)),
		}
		for i, t := range a.Args {
			if t.IsVar {
				ca.args[i] = slotOf(t.Name)
			} else {
				ca.args[i] = -1
				ca.consts[i] = t.Val
			}
		}
		return ca
	}
	cr := &compiledRule{}
	// Body first so every head variable is already slotted (range
	// restriction guarantees it appears there).
	for _, a := range r.Body {
		cr.body = append(cr.body, lower(a))
	}
	for _, a := range r.NegBody {
		cr.neg = append(cr.neg, lower(a))
	}
	cr.head = lower(r.Head)
	cr.nVars = len(slots)
	return cr
}
