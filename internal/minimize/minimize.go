// Package minimize implements Section VII of the paper: minimization of
// Datalog programs under uniform equivalence.
//
// Fig. 1 minimizes a single rule r: each body atom is considered exactly
// once; if deleting it yields a rule r̂ with r̂ ⊑ᵘ r, the deletion is kept
// (r ⊑ᵘ r̂ holds trivially, so r̂ ≡ᵘ r). Fig. 2 minimizes a whole program P:
// first every rule is minimized with the containment test r̂ ⊑ᵘ P (an atom
// may be redundant relative to the whole program without being redundant in
// its rule alone), then redundant rules are removed with the test
// r ⊑ᵘ P∖{r}. Theorem 2 proves that considering each atom and each rule
// once suffices, provided atoms are removed before rules — which is exactly
// the order enforced here.
//
// The final result is uniformly equivalent to the input and has neither a
// redundant atom nor a redundant rule, but — as the paper notes — it is not
// necessarily unique: it may depend on the order in which atoms and rules
// are considered. Options.Rand exposes that order for the ablation
// experiments.
//
// Every entry point takes the caller's context first: it is threaded into
// every containment chase, so a deadline aborts promptly with an error
// wrapping eval.ErrCanceled. Cancellation leaves the shared plan and verdict
// caches valid — only completed verdicts are ever published.
package minimize

import (
	"context"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
)

// Options configures minimization.
type Options struct {
	// Rand, when non-nil, shuffles the order in which body atoms and rules
	// are considered for deletion (the paper: the result "may depend upon
	// the order in which atoms and rules are considered"). Nil keeps source
	// order, making the result deterministic.
	Rand *rand.Rand
	// Valid, when non-nil, is an extra admissibility predicate a shortened
	// rule must pass before the containment test is even attempted. The
	// stratified extension uses it to reject deletions that would unbind a
	// negated literal's variables.
	Valid func(ast.Rule) bool
	// PlanCache selects the plan cache the containment sessions prepare
	// through; nil selects the process-wide cache. Servers and tests inject
	// their own to isolate or partition cache footprints.
	PlanCache *eval.PlanCache
}

// AtomRemoval records one Fig. 1/Fig. 2 atom deletion.
type AtomRemoval struct {
	// Rule is the rule as it was immediately before this deletion.
	Rule ast.Rule
	// Atom is the deleted body atom.
	Atom ast.Atom
}

// Trace records what minimization removed.
type Trace struct {
	AtomRemovals []AtomRemoval
	RuleRemovals []ast.Rule
	// Stats is the containment session lineage's cumulative work: plan-cache
	// hits/misses, verdicts answered from the store, by θ-subsumption or by
	// a fresh chase, and the folded stats of every chase's evaluation.
	Stats eval.Stats
}

// AtomsRemoved returns the number of deleted body atoms.
func (t Trace) AtomsRemoved() int { return len(t.AtomRemovals) }

// RulesRemoved returns the number of deleted rules.
func (t Trace) RulesRemoved() int { return len(t.RuleRemovals) }

// Rule minimizes a single rule under uniform equivalence (Fig. 1). The
// returned rule is uniformly equivalent to r and has no redundant atom.
func Rule(ctx context.Context, r ast.Rule, opts Options) (ast.Rule, Trace, error) {
	p := ast.NewProgram(r.Clone())
	q, ck, trace, err := minimizeAtoms(ctx, p, opts)
	if err != nil {
		return ast.Rule{}, trace, err
	}
	trace.Stats = ck.Stats()
	return q.Rules[0], trace, nil
}

// Program minimizes a program under uniform equivalence (Fig. 2): all
// redundant atoms are removed first, then all redundant rules. The result
// is uniformly equivalent to p.
func Program(ctx context.Context, p *ast.Program, opts Options) (*ast.Program, Trace, error) {
	q := p.Clone()
	if opts.Rand != nil {
		shuffleProgram(q, opts.Rand)
	}
	q, ck, trace, err := minimizeAtoms(ctx, q, opts)
	if err != nil {
		return nil, trace, err
	}
	// The atom phase's session carries into the rule phase: its plan and
	// frozen bodies are handed to each rule deletion via Derive.
	q, ck, trace2, err := removeRedundantRulesSession(ctx, q, ck)
	if err != nil {
		return nil, trace, err
	}
	trace.RuleRemovals = trace2.RuleRemovals
	trace.Stats = ck.Stats()
	return q, trace, nil
}

// minimizeAtoms runs the first phase of Fig. 2 on every rule of p (which,
// for a single-rule program, is exactly Fig. 1). Each atom is considered
// once; the test for deleting atom α from rule r is r̂ ⊑ᵘ P with P the
// current program. One containment session serves the whole phase: an
// accepted deletion replaces a rule by a body-subset of itself, so the
// session for the shortened program is derived from the current one —
// the prepared schedule is patched rather than rebuilt and frozen bodies
// carry over wholesale; verdicts are decided afresh for the new program.
// The session is returned so the rule phase can keep deriving from it.
func minimizeAtoms(ctx context.Context, p *ast.Program, opts Options) (*ast.Program, *chase.Checker, Trace, error) {
	var trace Trace
	q := p // both callers pass a program they own; it is mutated in place
	ck, err := chase.NewCheckerIn(q, eval.NewLineage(opts.PlanCache))
	if err != nil {
		return nil, nil, trace, err
	}
	for i := range q.Rules {
		if opts.Rand != nil {
			shuffleBody(&q.Rules[i], opts.Rand)
		}
		// k indexes the next unconsidered atom of the current body. When a
		// deletion succeeds the atom that slides into position k is itself
		// unconsidered, so k stays put; otherwise k advances. Every atom is
		// therefore considered exactly once.
		k := 0
		for k < len(q.Rules[i].Body) {
			r := q.Rules[i]
			cand := withoutBodyAtom(r, k)
			if !cand.WellFormed() {
				// Deleting the atom breaks range restriction, so the
				// shortened rule is not even well-formed; keep the atom.
				k++
				continue
			}
			if opts.Valid != nil && !opts.Valid(cand) {
				k++
				continue
			}
			ok, err := ck.ContainsRule(ctx, cand)
			if err != nil {
				return nil, nil, trace, err
			}
			if ok {
				trace.AtomRemovals = append(trace.AtomRemovals, AtomRemoval{Rule: r.Clone(), Atom: r.Body[k].Clone()})
				q.Rules[i] = cand
				ck, err = ck.Derive(chase.Delta{RuleIndex: i, NewRule: &cand})
				if err != nil {
					return nil, nil, trace, err
				}
			} else {
				k++
			}
		}
	}
	return q, ck, trace, nil
}

// removeRedundantRulesSession runs the second phase of Fig. 2: each rule is
// considered once and deleted when it is uniformly contained in the rest of
// the program. ck must be a session over p. Every candidate "rest" program
// is a single-rule deletion from the current program, so its session is
// derived; when the deletion is accepted the derived session becomes the
// current one, and the verdicts it decided stay in its program's store.
func removeRedundantRulesSession(ctx context.Context, p *ast.Program, ck *chase.Checker) (*ast.Program, *chase.Checker, Trace, error) {
	var trace Trace
	q := p.Clone()
	i := 0
	for i < len(q.Rules) {
		r := q.Rules[i]
		restCk, err := ck.Derive(chase.Delta{RuleIndex: i})
		if err != nil {
			return nil, nil, trace, err
		}
		ok, err := restCk.ContainsRule(ctx, r)
		if err != nil {
			return nil, nil, trace, err
		}
		if ok {
			trace.RuleRemovals = append(trace.RuleRemovals, r.Clone())
			// q is our clone, so the deletion can splice in place instead of
			// re-cloning the whole program per accepted rule.
			q.Rules = append(q.Rules[:i], q.Rules[i+1:]...)
			ck = restCk
		} else {
			i++
		}
	}
	return q, ck, trace, nil
}

// RemoveRedundantRules removes only redundant rules (no atom minimization);
// exposed for the ablation that demonstrates why Fig. 2 must delete atoms
// first (Theorem 2's proof depends on it).
func RemoveRedundantRules(ctx context.Context, p *ast.Program) (*ast.Program, Trace, error) {
	ck, err := chase.NewChecker(p)
	if err != nil {
		return nil, Trace{}, err
	}
	q, ck, trace, err := removeRedundantRulesSession(ctx, p, ck)
	if err != nil {
		return nil, trace, err
	}
	trace.Stats = ck.Stats()
	return q, trace, nil
}

// IsMinimal reports whether p has no atom and no rule deletable under
// uniform equivalence — the property Theorem 2 guarantees for the output of
// Program. All atom tests share one containment session over p, and each
// rule test derives the rule-deleted session from it, which inherits the
// plan but none of the verdicts.
func IsMinimal(ctx context.Context, p *ast.Program) (bool, error) {
	ck, err := chase.NewChecker(p)
	if err != nil {
		return false, err
	}
	for i, r := range p.Rules {
		for k := range r.Body {
			cand := withoutBodyAtom(r, k)
			if !cand.WellFormed() {
				continue
			}
			ok, err := ck.ContainsRule(ctx, cand)
			if err != nil {
				return false, err
			}
			if ok {
				return false, nil
			}
		}
		restCk, err := ck.Derive(chase.Delta{RuleIndex: i})
		if err != nil {
			return false, err
		}
		ok, err := restCk.ContainsRule(ctx, r)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
	return true, nil
}

// withoutBodyAtom is ast.Rule.WithoutBodyAtom without the deep clone: the
// candidate shares the rule's atoms (only the body slice is fresh), which is
// safe because the minimization loops treat rules as immutable — candidates
// are only validated, tested for containment, and installed wholesale.
func withoutBodyAtom(r ast.Rule, k int) ast.Rule {
	body := make([]ast.Atom, 0, len(r.Body)-1)
	body = append(body, r.Body[:k]...)
	body = append(body, r.Body[k+1:]...)
	return ast.Rule{Head: r.Head, Body: body, NegBody: r.NegBody}
}

func shuffleProgram(p *ast.Program, rng *rand.Rand) {
	rng.Shuffle(len(p.Rules), func(i, j int) {
		p.Rules[i], p.Rules[j] = p.Rules[j], p.Rules[i]
	})
}

func shuffleBody(r *ast.Rule, rng *rand.Rand) {
	rng.Shuffle(len(r.Body), func(i, j int) {
		r.Body[i], r.Body[j] = r.Body[j], r.Body[i]
	})
}
