// Package rewrite provides classic equivalence-preserving program
// transformations that complement the paper's minimization: dead-rule
// elimination by query-reachability and unfounded-rule elimination. Both
// preserve equivalence in the paper's Section IV sense — same output for
// every EDB — but, like the Section XI optimization, not uniform
// equivalence (they may change behaviour on inputs that pre-populate
// intentional relations).
package rewrite

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/depgraph"
)

// RemoveUnreachable deletes rules that cannot contribute to the query
// predicate: a rule is kept iff its head predicate is needed, where the
// needed set is the least set containing queryPred and closed under
// "if a head is needed, its body predicates are needed" — the rules of
// queryPred's goal cone (depgraph.Graph.Cone).
func RemoveUnreachable(p *ast.Program, queryPred string) *ast.Program {
	in := depgraph.Build(p).Cone(queryPred)
	out := ast.NewProgram()
	for i, r := range p.Rules {
		if in[i] {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	return out
}

// RemoveUnfounded deletes rules that can never fire on any EDB input: a
// predicate is productive when it is extensional or some rule for it has
// an all-productive positive body (depgraph.Graph.Derivable from the
// extensional predicates); a rule mentioning a non-productive positive body
// atom is dead. (Negated atoms never block productivity — absence is
// satisfiable.) The result is equivalent over EDB inputs.
func RemoveUnfounded(p *ast.Program) *ast.Program {
	productive := depgraph.Build(p).Derivable(p.EDBPredicates())
	out := ast.NewProgram()
	for _, r := range p.Rules {
		if !slices.ContainsFunc(r.Body, func(a ast.Atom) bool { return !productive[a.Pred] }) {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	return out
}
