// Package rewrite provides classic equivalence-preserving program
// transformations that complement the paper's minimization: single-step
// rule unfolding (partial evaluation), dead-rule elimination by
// query-reachability, and unfounded-rule elimination. All three preserve
// equivalence in the paper's Section IV sense — same output for every
// EDB — but, like the Section XI optimization, not uniform equivalence
// (they may change behaviour on inputs that pre-populate intentional
// relations, e.g. unfolding forgets input facts of the unfolded
// predicate).
package rewrite

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/depgraph"
)

// UnfoldAtom replaces rule ruleIdx of p by its unfoldings through body
// atom atomIdx: one new rule per rule defining that atom's predicate, with
// the atom replaced by the defining rule's body under the most general
// unifier of atom and head. Every derivation of the old rule factors
// through some defining rule, so the result is equivalent to p over EDB
// inputs. The atom's predicate must be intentional.
func UnfoldAtom(p *ast.Program, ruleIdx, atomIdx int) (*ast.Program, error) {
	if ruleIdx < 0 || ruleIdx >= len(p.Rules) {
		return nil, fmt.Errorf("rewrite: rule index %d out of range", ruleIdx)
	}
	r := p.Rules[ruleIdx]
	if r.HasNegation() {
		return nil, fmt.Errorf("rewrite: unfolding through negation is unsupported")
	}
	if atomIdx < 0 || atomIdx >= len(r.Body) {
		return nil, fmt.Errorf("rewrite: atom index %d out of range", atomIdx)
	}
	atom := r.Body[atomIdx]
	idb := p.IDBPredicates()
	if !idb[atom.Pred] {
		return nil, fmt.Errorf("rewrite: %s is extensional; only intentional atoms unfold", atom.Pred)
	}

	out := ast.NewProgram()
	for i, other := range p.Rules {
		if i != ruleIdx {
			out.Rules = append(out.Rules, other.Clone())
		}
	}
	tag := 0
	for _, def := range p.Rules {
		if def.Head.Pred != atom.Pred {
			continue
		}
		if def.HasNegation() {
			return nil, fmt.Errorf("rewrite: defining rule %s uses negation", def)
		}
		tag++
		fresh := def.RenameApart(1000 + tag)
		u := ast.NewUnifier()
		if !u.UnifyAtoms(atom, fresh.Head) {
			continue // constant clash: this defining rule cannot produce the atom
		}
		unfolded := ast.Rule{Head: u.Apply(r.Head)}
		for j, b := range r.Body {
			if j == atomIdx {
				unfolded.Body = append(unfolded.Body, u.ApplyAll(fresh.Body)...)
				continue
			}
			unfolded.Body = append(unfolded.Body, u.Apply(b))
		}
		out.Rules = append(out.Rules, unfolded)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

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

// AddInputRules implements the observation closing Section IV of the
// paper: adding, for every intentional predicate B, a rule
//
//	B(x₁,…,xₙ) :- B@0(x₁,…,xₙ)
//
// over a fresh extensional predicate B@0 turns uniform containment into
// plain containment — P₂ ⊑ᵘ P₁ iff P₂′ ⊑ P₁′ — because an EDB for the
// primed program can smuggle arbitrary initial IDB relations in through
// the B@0 relations. The '@' in the generated name cannot occur in parsed
// predicates, so no collision is possible.
func AddInputRules(p *ast.Program) *ast.Program {
	out := p.Clone()
	idb := p.IDBPredicates()
	arity := map[string]int{}
	for _, r := range p.Rules {
		if idb[r.Head.Pred] {
			arity[r.Head.Pred] = r.Head.Arity()
		}
	}
	names := make([]string, 0, len(arity))
	for name := range arity {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := arity[name]
		args := make([]ast.Term, n)
		for i := range args {
			args[i] = ast.Var(fmt.Sprintf("x%d", i+1))
		}
		out.Rules = append(out.Rules, ast.Rule{
			Head: ast.Atom{Pred: name, Args: args},
			Body: []ast.Atom{{Pred: name + "@0", Args: append([]ast.Term(nil), args...)}},
		})
	}
	return out
}
