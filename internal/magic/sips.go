package magic

import (
	"repro/internal/ast"
	"repro/internal/db"
)

// SIPS selects the sideways-information-passing strategy: the order in
// which a rule's body atoms are visited during adornment, which determines
// how query bindings propagate into subgoals.
type SIPS int

const (
	// LeftToRight visits body atoms in source order — the strategy the
	// basic transformation describes and the default everywhere.
	LeftToRight SIPS = iota
	// BoundFirst greedily visits the atom with the most bound arguments
	// next (extensional atoms win ties), so bindings reach intentional
	// subgoals even when the rule body is written in an unfavourable
	// order. Answers are identical; the work done can differ drastically
	// (see TestSIPSMatters).
	BoundFirst
)

// Options configures the magic-sets transformation.
type Options struct {
	SIPS SIPS
}

// bodyOrder returns the visit order of r's body atoms under the strategy,
// given the initially bound variables.
func bodyOrder(r ast.Rule, headBound map[string]bool, idb map[string]bool, strategy SIPS) []int {
	n := len(r.Body)
	order := make([]int, 0, n)
	if strategy == LeftToRight {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		return order
	}
	bound := make(map[string]bool, len(headBound))
	for v := range headBound {
		bound[v] = true
	}
	used := make([]bool, n)
	for len(order) < n {
		best, bestScore := -1, -1
		for i, a := range r.Body {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if !t.IsVar || bound[t.Name] {
					score += 2
				}
			}
			if !idb[a.Pred] {
				score++ // prefer extensional atoms on ties: cheap binders
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		order = append(order, best)
		for _, t := range r.Body[best].Args {
			if t.IsVar {
				bound[t.Name] = true
			}
		}
	}
	return order
}

// RewriteWithOptions is Rewrite with an explicit SIPS choice.
func RewriteWithOptions(p *ast.Program, query ast.Atom, opts Options) (*Rewritten, error) {
	return rewrite(p, query, opts.SIPS)
}

// AnswerWithOptions answers a query through the magic rewriting with an
// explicit SIPS choice.
func AnswerWithOptions(p *ast.Program, edb *db.Database, query ast.Atom, opts Options) ([][]ast.Const, Stats, error) {
	rw, err := RewriteWithOptions(p, query, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return rw.answer(rw.seeded(edb))
}
