package minimize

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/workload"
)

// literalFig2 is Figs. 1–2 as the paper states them, with none of the
// sessions Program runs on: every candidate is decided by a one-shot
// chase.UniformlyContains (containsRule) against the current program — r̂ ⊑ᵘ P after
// each accepted atom deletion, r ⊑ᵘ P − {r} after each accepted rule
// deletion. The rng draws are Program's, in Program's order. A candidate is
// tested only when it is well-formed and so is its negation decoding
// (decodeRuleNeg, the identity on a program with no encoded literal): on an
// encoding, that is the admissibility check the stratified fork passed its
// Fig. 2 run.
func literalFig2(p *ast.Program, opts Options) (*ast.Program, Trace, error) {
	var trace Trace
	q := p.Clone()
	if opts.Rand != nil {
		opts.Rand.Shuffle(len(q.Rules), func(i, j int) { q.Rules[i], q.Rules[j] = q.Rules[j], q.Rules[i] })
	}
	for i := range q.Rules {
		if body := q.Rules[i].Body; opts.Rand != nil {
			opts.Rand.Shuffle(len(body), func(a, b int) { body[a], body[b] = body[b], body[a] })
		}
		for k := 0; k < len(q.Rules[i].Body); {
			r := q.Rules[i]
			cand := r.WithoutBodyAtom(k)
			if dec, _ := decodeRuleNeg(cand); !cand.WellFormed() || !dec.WellFormed() {
				k++
				continue
			}
			ok, err := containsRule(q, cand)
			if err != nil {
				return nil, trace, err
			}
			if !ok {
				k++
				continue
			}
			trace.AtomRemovals = append(trace.AtomRemovals, AtomRemoval{Rule: r.Clone(), Atom: r.Body[k].Clone()})
			q.Rules[i] = cand
		}
	}
	for i := 0; i < len(q.Rules); {
		rest := q.WithoutRule(i)
		ok, err := containsRule(rest, q.Rules[i])
		if err != nil {
			return nil, trace, err
		}
		if !ok {
			i++
			continue
		}
		trace.RuleRemovals = append(trace.RuleRemovals, q.Rules[i].Clone())
		q = rest
	}
	return q, trace, nil
}

// containsRule decides r ⊑ᵘ p by a one-shot chase.UniformlyContains of the
// one-rule program. The programs literalFig2 tests are pure, so the verdict
// is Yes or No; Unknown is an error.
func containsRule(p *ast.Program, r ast.Rule) (bool, error) {
	v, _, err := chase.UniformlyContains(p, ast.NewProgram(r))
	if err == nil && v == chase.Unknown {
		err = fmt.Errorf("%s ⊑ᵘ program: unknown on a pure pair", r)
	}
	return v == chase.Yes, err
}

// literalIsMinimal is Thm. 2's property tested literally: no well-formed
// single-atom deletion r̂ (whose decoding is well-formed too, as in
// literalFig2) has r̂ ⊑ᵘ P, and no rule has r ⊑ᵘ P − {r}.
func literalIsMinimal(p *ast.Program) (bool, error) {
	for i, r := range p.Rules {
		for k := range r.Body {
			cand := r.WithoutBodyAtom(k)
			if dec, _ := decodeRuleNeg(cand); !cand.WellFormed() || !dec.WellFormed() {
				continue
			}
			if ok, err := containsRule(p, cand); err != nil || ok {
				return false, err
			}
		}
		if ok, err := containsRule(p.WithoutRule(i), r); err != nil || ok {
			return false, err
		}
	}
	return true, nil
}

// renamePreds renames every predicate of p by f.
func renamePreds(p *ast.Program, f func(string) string) *ast.Program {
	atoms := func(as []ast.Atom) []ast.Atom {
		out := make([]ast.Atom, len(as))
		for i, a := range as {
			out[i] = a.Clone()
			out[i].Pred = f(a.Pred)
		}
		return out
	}
	out := ast.NewProgram()
	for _, r := range p.Rules {
		out.Rules = append(out.Rules, ast.Rule{Head: atoms([]ast.Atom{r.Head})[0], Body: atoms(r.Body), NegBody: atoms(r.NegBody)})
	}
	return out
}

// renderRun is a minimization's output and trace as one comparable string.
func renderRun(out *ast.Program, tr Trace) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program:\n%s\n", out)
	for _, a := range tr.AtomRemovals {
		neg := ""
		if a.Negated {
			neg = "!"
		}
		fmt.Fprintf(&sb, "atom %s%s from %s\n", neg, a.Atom, a.Rule)
	}
	for _, r := range tr.RuleRemovals {
		fmt.Fprintf(&sb, "rule %s\n", r)
	}
	return sb.String()
}

// TestMinimizeMatchesLiteralFig2: Program tests every atom candidate on one
// session over the input and every rule candidate by a mask on one session
// over the atom phase's output. Over random bloated programs and two option
// sets — source order and a seeded Rand — its output, AtomRemovals and
// RuleRemovals are byte-identical to the literal loops', and IsMinimal
// agrees with the literal test on the input and on the output. The literal
// side runs on the programs with every predicate renamed, so the two sides
// never read each other's entries in the process-wide verdict store.
func TestMinimizeMatchesLiteralFig2(t *testing.T) {
	n := 1500
	if testing.Short() {
		n = 200
	}
	ref := func(pred string) string { return "Lit" + pred }
	back := func(pred string) string { return strings.TrimPrefix(pred, "Lit") }
	removed := 0
	for seed := int64(0); seed < int64(n); seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(4))
		p = workload.InjectRedundantAtomsProgram(p, 1, rng)
		p = workload.InjectRedundantRules(p, 1+rng.Intn(2), rng)
		if p.Validate() != nil {
			continue
		}
		lp := renamePreds(p, ref)
		for set, mk := range []func() (Options, Options){
			func() (Options, Options) { return Options{}, Options{} },
			func() (Options, Options) {
				return Options{Rand: rand.New(rand.NewSource(seed))}, Options{Rand: rand.New(rand.NewSource(seed))}
			},
		} {
			opts, lopts := mk()
			out, tr, err := Program(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("seed %d set %d: %v", seed, set, err)
			}
			lout, ltr, err := literalFig2(lp, lopts)
			if err != nil {
				t.Fatalf("seed %d set %d: literal: %v", seed, set, err)
			}
			for i := range ltr.AtomRemovals {
				ltr.AtomRemovals[i].Rule = renamePreds(ast.NewProgram(ltr.AtomRemovals[i].Rule), back).Rules[0]
				ltr.AtomRemovals[i].Atom.Pred = back(ltr.AtomRemovals[i].Atom.Pred)
			}
			ltr.RuleRemovals = renamePreds(ast.NewProgram(ltr.RuleRemovals...), back).Rules
			if got, want := renderRun(out, tr), renderRun(renamePreds(lout, back), ltr); got != want {
				t.Fatalf("seed %d set %d: Program differs from the literal Figs. 1–2\ninput:\n%s\ngot:\n%s\nwant:\n%s", seed, set, p, got, want)
			}
			removed += tr.AtomsRemoved() + tr.RulesRemoved()
			if set != 0 {
				continue
			}
			for _, c := range []struct{ p, lp *ast.Program }{{p, lp}, {out, lout}} {
				got, err := IsMinimal(context.Background(), c.p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := literalIsMinimal(c.lp)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: IsMinimal = %v, the literal test says %v\n%s", seed, got, want, c.p)
				}
			}
		}
	}
	if removed < n {
		t.Fatalf("only %d deletions over %d programs: the generator exercises too little", removed, n)
	}
}
