package minimize

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/depgraph"
)

// StratifiedProgram extends the Fig. 2 minimizer to Datalog with stratified
// negation — the direction the paper's conclusion announces ("the results
// on uniform containment and minimization can be extended to Datalog
// programs with stratified negation").
//
// The implementation is the conservative encoding: every negated literal
// !Q(t̄) is replaced by a positive atom over a fresh extensional predicate
// neg@Q(t̄), the resulting pure-Datalog program is minimized with Fig. 2,
// and the encoding is inverted. Soundness: a deletion justified in the
// encoding is witnessed by a derivation whose negated-literal demands are
// instances of the very literals the shortened rule checks, and whose
// positive facts are consequences of facts actually present — so whenever
// the shortened rule fires during stratified evaluation, the original
// program already derives the same head. The encoding is conservative: a
// deletion that would need reasoning ABOUT negation (e.g. Q and !Q being
// exhaustive) is not found.
//
// Deletions that would leave a negated literal's variable unbound in the
// positive body (breaking the safety condition) are rejected through the
// validity hook.
func StratifiedProgram(ctx context.Context, p *ast.Program, opts Options) (*ast.Program, Trace, error) {
	if !p.HasNegation() {
		return Program(ctx, p, opts)
	}
	if err := depgraph.Build(p).Stratified(); err != nil {
		return nil, Trace{}, err
	}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if strings.HasPrefix(a.Pred, chase.NegPrefix) {
				return nil, Trace{}, fmt.Errorf("minimize: predicate %s collides with the negation encoding", a.Pred)
			}
		}
	}

	encoded := chase.EncodeNegation(p)
	opts.Valid = func(r ast.Rule) bool {
		dec, err := chase.DecodeRuleNegation(r)
		if err != nil {
			return false
		}
		return dec.Validate() == nil
	}
	minEnc, trace, err := Program(ctx, encoded, opts)
	if err != nil {
		return nil, trace, err
	}
	out, err := decodeNegation(minEnc)
	if err != nil {
		return nil, trace, err
	}
	// Re-render the trace in decoded form.
	for i := range trace.AtomRemovals {
		trace.AtomRemovals[i].Rule = mustDecodeRule(trace.AtomRemovals[i].Rule)
		trace.AtomRemovals[i].Atom = decodeAtom(trace.AtomRemovals[i].Atom)
	}
	for i := range trace.RuleRemovals {
		trace.RuleRemovals[i] = mustDecodeRule(trace.RuleRemovals[i])
	}
	return out, trace, nil
}

// decodeNegation inverts chase.EncodeNegation.
func decodeNegation(p *ast.Program) (*ast.Program, error) {
	out := ast.NewProgram()
	for _, r := range p.Rules {
		dec, err := chase.DecodeRuleNegation(r)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, dec)
	}
	return out, nil
}

func mustDecodeRule(r ast.Rule) ast.Rule {
	dec, err := chase.DecodeRuleNegation(r)
	if err != nil {
		panic(err)
	}
	return dec
}

func decodeAtom(a ast.Atom) ast.Atom {
	if strings.HasPrefix(a.Pred, chase.NegPrefix) {
		n := a.Clone()
		n.Pred = strings.TrimPrefix(n.Pred, chase.NegPrefix)
		return n
	}
	return a
}
