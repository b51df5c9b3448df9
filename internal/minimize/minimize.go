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
// Each phase runs on one containment session, whatever it deletes. The atom
// phase tests every candidate against the input P₀: an accepted deletion
// keeps P ≡ᵘ P₀, that is M(P) = M(P₀) by Proposition 2, so r̂ ⊑ᵘ P has the
// answer of r̂ ⊑ᵘ P₀. The rule phase opens one session over the atom phase's
// output and tests r ⊑ᵘ P − S − {r} by masking S ∪ {r} out of its plan
// (chase.Checker.ContainsRuleMasked).
//
// The final result is uniformly equivalent to the input and has neither a
// redundant atom nor a redundant rule, but — as the paper notes — it is not
// necessarily unique: it may depend on the order in which atoms and rules
// are considered. Options.Rand exposes that order for the ablation
// experiments.
//
// A program with stratified negation — the extension the paper's conclusion
// announces — goes through the same loops: its negated literals are deletion
// candidates after its positive atoms, and its containment session decides
// every candidate through the negation encoding (chase.NewCheckerIn), whose
// positive answers are sound for stratified semantics. A deletion that would
// need reasoning about negation is not found.
//
// Every entry point takes the caller's context first: it is threaded into
// every containment chase, so a deadline aborts promptly with an error
// wrapping eval.ErrCanceled. Cancellation leaves the shared plan and verdict
// caches valid — only completed verdicts are ever published.
package minimize

import (
	"context"
	"math/rand"
	"slices"

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
}

// AtomRemoval records one Fig. 1/Fig. 2 atom deletion.
type AtomRemoval struct {
	// Rule is the rule as it was immediately before this deletion.
	Rule ast.Rule
	// Atom is the deleted body atom.
	Atom ast.Atom
	// Negated reports that Atom was a negated literal !Atom.
	Negated bool
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
	ck, err := chase.NewCheckerIn(p, eval.NewLineage())
	if err != nil {
		return ast.Rule{}, Trace{}, err
	}
	trace, err := minimizeAtoms(ctx, p, ck, opts)
	if err != nil {
		return ast.Rule{}, trace, err
	}
	trace.Stats = ck.Stats()
	return p.Rules[0], trace, nil
}

// Program minimizes a program under uniform equivalence (Fig. 2): all
// redundant atoms are removed first, then all redundant rules. The result
// is uniformly equivalent to p.
func Program(ctx context.Context, p *ast.Program, opts Options) (*ast.Program, Trace, error) {
	q := p.Clone()
	if opts.Rand != nil {
		shuffleProgram(q, opts.Rand)
	}
	ck, err := chase.NewCheckerIn(q, eval.NewLineage())
	if err != nil {
		return nil, Trace{}, err
	}
	trace, err := minimizeAtoms(ctx, q, ck, opts)
	if err != nil {
		return nil, trace, err
	}
	// The rule phase runs on the atom phase's output P₁, one session for the
	// whole phase. When no atom went, P₁ is P₀ — up to the order of body
	// atoms Rand drew, which no verdict depends on — and its session serves.
	if trace.AtomsRemoved() > 0 {
		if ck, err = chase.NewCheckerIn(q, ck.Lineage); err != nil {
			return nil, trace, err
		}
	}
	gone, err := redundantRules(ctx, ck, false)
	if err != nil {
		return nil, trace, err
	}
	out, removed := splitRules(q.Rules, gone)
	trace.RuleRemovals = removed
	trace.Stats = ck.Stats()
	return out, trace, nil
}

// minimizeAtoms runs the first phase of Fig. 2 on every rule of p (which,
// for a single-rule program, is exactly Fig. 1), rewriting p in place. Each
// atom is considered once — the positive body first, then the negated
// literals — and deleting atom α from rule r is accepted when r̂ ⊑ᵘ P for
// the current program P. Every accepted deletion keeps P ≡ᵘ P₀, the input,
// and by Prop. 2 that is M(P) = M(P₀), so r̂ ⊑ᵘ P and r̂ ⊑ᵘ P₀ have one
// answer: every candidate is tested on ck, the session over P₀, whatever
// was deleted before it. An accepted deletion changes p and nothing else —
// no new plan, no new canonical form — and every verdict lands in P₀'s
// table, decided by a run on P₀.
func minimizeAtoms(ctx context.Context, p *ast.Program, ck *chase.Checker, opts Options) (Trace, error) {
	var trace Trace
	for i := range p.Rules {
		if opts.Rand != nil {
			shuffleBody(&p.Rules[i], opts.Rand)
		}
		// k indexes the next unconsidered atom of the current body. When a
		// deletion succeeds the atom that slides into position k is itself
		// unconsidered, so k stays put; otherwise k advances. Every atom is
		// therefore considered exactly once.
		k := 0
		for k < len(p.Rules[i].Body)+len(p.Rules[i].NegBody) {
			r := p.Rules[i]
			cand := withoutAtom(r, k)
			if !cand.WellFormed() {
				// Deleting the atom breaks range restriction or the safety
				// of a negated literal, so the shortened rule is not even
				// well-formed; keep the atom.
				k++
				continue
			}
			ok, err := ck.ContainsRule(ctx, cand)
			if err != nil {
				return trace, err
			}
			if ok {
				rm := AtomRemoval{Rule: r.Clone(), Negated: k >= len(r.Body)}
				if rm.Negated {
					rm.Atom = r.NegBody[k-len(r.Body)].Clone()
				} else {
					rm.Atom = r.Body[k].Clone()
				}
				trace.AtomRemovals = append(trace.AtomRemovals, rm)
				p.Rules[i] = cand
			} else {
				k++
			}
		}
	}
	return trace, nil
}

// redundantRules runs the second phase of Fig. 2 over ck's program P: each
// rule r is considered once and deleted when r ⊑ᵘ P − S − {r}, S being the
// rules deleted before it. Every test runs P's plan with S ∪ {r} masked, so
// the phase prepares nothing. The returned mask marks the deleted rules; with
// first set the phase stops at the first deletion.
func redundantRules(ctx context.Context, ck *chase.Checker, first bool) ([]bool, error) {
	rules := ck.Program().Rules
	skip := make([]bool, len(rules))
	for i, r := range rules {
		skip[i] = true
		ok, err := ck.ContainsRuleMasked(ctx, r, skip)
		if err != nil {
			return nil, err
		}
		skip[i] = ok
		if ok && first {
			break
		}
	}
	return skip, nil
}

// splitRules returns the rules gone does not mark, as a program, and the
// rules it marks, each cloned.
func splitRules(rules []ast.Rule, gone []bool) (*ast.Program, []ast.Rule) {
	out := ast.NewProgram()
	var removed []ast.Rule
	for i, r := range rules {
		if gone[i] {
			removed = append(removed, r.Clone())
		} else {
			out.Rules = append(out.Rules, r.Clone())
		}
	}
	return out, removed
}

// RemoveRedundantRules removes only redundant rules (no atom minimization);
// exposed for the ablation that demonstrates why Fig. 2 must delete atoms
// first (Theorem 2's proof depends on it).
func RemoveRedundantRules(ctx context.Context, p *ast.Program) (*ast.Program, Trace, error) {
	ck, err := chase.NewChecker(p)
	if err != nil {
		return nil, Trace{}, err
	}
	gone, err := redundantRules(ctx, ck, false)
	if err != nil {
		return nil, Trace{}, err
	}
	out, removed := splitRules(p.Rules, gone)
	return out, Trace{RuleRemovals: removed, Stats: ck.Stats()}, nil
}

// IsMinimal reports whether p has no atom and no rule deletable under
// uniform equivalence — the property Theorem 2 guarantees for the output of
// Program. Every atom test and, through masks, every rule test runs on one
// containment session over p.
func IsMinimal(ctx context.Context, p *ast.Program) (bool, error) {
	ck, err := chase.NewChecker(p)
	if err != nil {
		return false, err
	}
	for _, r := range p.Rules {
		for k := range len(r.Body) + len(r.NegBody) {
			cand := withoutAtom(r, k)
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
	}
	gone, err := redundantRules(ctx, ck, true)
	if err != nil {
		return false, err
	}
	return !slices.Contains(gone, true), nil
}

// withoutAtom is r with its kth atom deleted, counting the positive body
// first and the negated literals after it. Unlike ast.Rule.WithoutBodyAtom
// it does not deep-clone: the candidate shares the rule's atoms (only the
// shortened slice is fresh), which is safe because the minimization loops
// treat rules as immutable — candidates are only validated, tested for
// containment, and installed wholesale.
func withoutAtom(r ast.Rule, k int) ast.Rule {
	if k < len(r.Body) {
		r.Body = without(r.Body, k)
	} else {
		r.NegBody = without(r.NegBody, k-len(r.Body))
	}
	return r
}

func without(atoms []ast.Atom, k int) []ast.Atom {
	out := make([]ast.Atom, 0, len(atoms)-1)
	out = append(out, atoms[:k]...)
	return append(out, atoms[k+1:]...)
}

func shuffleProgram(p *ast.Program, rng *rand.Rand) {
	rng.Shuffle(len(p.Rules), func(i, j int) {
		p.Rules[i], p.Rules[j] = p.Rules[j], p.Rules[i]
	})
}

// shuffleBody shuffles the positive body and the negated literals, each
// within itself.
func shuffleBody(r *ast.Rule, rng *rand.Rand) {
	rng.Shuffle(len(r.Body), func(i, j int) {
		r.Body[i], r.Body[j] = r.Body[j], r.Body[i]
	})
	rng.Shuffle(len(r.NegBody), func(i, j int) {
		r.NegBody[i], r.NegBody[j] = r.NegBody[j], r.NegBody[i]
	})
}
