package minimize

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/depgraph"
	"repro/internal/workload"
)

// negPrefix names the encoded stand-in of a negated literal, as the
// containment checker spells it.
const negPrefix = "neg@"

// encodeNeg is the negation encoding written out for the tests: each negated
// literal !Q(t̄) becomes the atom neg@Q(t̄) of a fresh extensional
// predicate, after the rule's positive body.
func encodeNeg(p *ast.Program) *ast.Program {
	out := ast.NewProgram()
	for _, r := range p.Rules {
		enc := r.Clone()
		for _, a := range enc.NegBody {
			a.Pred = negPrefix + a.Pred
			enc.Body = append(enc.Body, a)
		}
		enc.NegBody = nil
		out.Rules = append(out.Rules, enc)
	}
	return out
}

// decodeRuleNeg inverts encodeNeg on one rule; an encoded head has no
// decoding.
func decodeRuleNeg(r ast.Rule) (ast.Rule, bool) {
	if strings.HasPrefix(r.Head.Pred, negPrefix) {
		return ast.Rule{}, false
	}
	dec := ast.Rule{Head: r.Head.Clone()}
	for _, a := range r.Body {
		a = a.Clone()
		if pred, ok := strings.CutPrefix(a.Pred, negPrefix); ok {
			a.Pred = pred
			dec.NegBody = append(dec.NegBody, a)
		} else {
			dec.Body = append(dec.Body, a)
		}
	}
	return dec, true
}

// stratifiedFork is how stratified programs were minimized before the
// containment checker took negation: encode the program, run Figs. 1–2 on
// the pure encoding — skipping every candidate whose decoding is not a
// well-formed rule — and decode the output and the trace. The run is
// literalFig2, which TestMinimizeMatchesLiteralFig2 holds Program to. It
// returns the encoded output too, for the literal minimality test.
func stratifiedFork(p *ast.Program) (out, enc *ast.Program, tr Trace, err error) {
	enc, tr, err = literalFig2(encodeNeg(p), Options{})
	if err != nil {
		return nil, nil, tr, err
	}
	out = ast.NewProgram()
	for _, r := range enc.Rules {
		dec, _ := decodeRuleNeg(r)
		out.Rules = append(out.Rules, dec)
	}
	for i, a := range tr.AtomRemovals {
		tr.AtomRemovals[i].Rule, _ = decodeRuleNeg(a.Rule)
		tr.AtomRemovals[i].Atom.Pred, tr.AtomRemovals[i].Negated = strings.CutPrefix(a.Atom.Pred, negPrefix)
	}
	for i, r := range tr.RuleRemovals {
		tr.RuleRemovals[i], _ = decodeRuleNeg(r)
	}
	return out, enc, tr, nil
}

// randomStratifiedProgram draws a bloated random program and moves one
// positive atom of some rules — extensional or intensional — into the
// negated body, sometimes duplicating the negated literal. It returns nil
// when the draw is unsafe, unstratifiable or has no negation.
func randomStratifiedProgram(rng *rand.Rand) *ast.Program {
	p := workload.RandomProgram(rng, 2+rng.Intn(4))
	for i := range p.Rules {
		r := &p.Rules[i]
		if len(r.Body) < 2 || rng.Intn(3) == 0 {
			continue
		}
		k := rng.Intn(len(r.Body))
		cand := withoutAtom(*r, k)
		cand.NegBody = []ast.Atom{r.Body[k]}
		if rng.Intn(3) == 0 {
			cand.NegBody = append(cand.NegBody, r.Body[k])
		}
		if cand.WellFormed() {
			*r = cand
		}
	}
	p = workload.InjectRedundantAtomsProgram(p, 1, rng)
	p = workload.InjectRedundantRules(p, 1+rng.Intn(2), rng)
	if !p.HasNegation() || p.Validate() != nil || depgraph.Build(p).Stratified() != nil {
		return nil
	}
	return p
}

// negatesIDB reports whether some negated literal of p names a predicate p
// defines.
func negatesIDB(p *ast.Program) bool {
	idb := p.IDBPredicates()
	for _, r := range p.Rules {
		for _, a := range r.NegBody {
			if idb[a.Pred] {
				return true
			}
		}
	}
	return false
}

// TestProgramMatchesStratifiedFork: on random stratified programs Program
// and IsMinimal take the program directly, and with Options{} they agree
// byte for byte with the encode → Fig. 2 → decode fork — output program,
// AtomRemovals (a removed negated literal marked Negated) and RuleRemovals,
// and the literal minimality test on the encoding, for the input and the
// output. The fork runs on the programs with every predicate renamed, so
// the two sides never share a plan or a verdict.
func TestProgramMatchesStratifiedFork(t *testing.T) {
	want := 1000
	if testing.Short() {
		want = 150
	}
	ref := func(pred string) string { return "Lit" + pred }
	back := func(pred string) string { return strings.TrimPrefix(pred, "Lit") }
	programs, idbNegated, removed, negRemoved := 0, 0, 0, 0
	for seed := int64(0); programs < want; seed++ {
		if seed > int64(10*want) {
			t.Fatalf("only %d stratified programs in %d seeds", programs, seed)
		}
		p := randomStratifiedProgram(rand.New(rand.NewSource(seed)))
		if p == nil {
			continue
		}
		programs++
		if negatesIDB(p) {
			idbNegated++
		}
		out, tr, err := Program(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		fout, fenc, ftr, err := stratifiedFork(renamePreds(p, ref))
		if err != nil {
			t.Fatalf("seed %d: fork: %v", seed, err)
		}
		for i, a := range ftr.AtomRemovals {
			ftr.AtomRemovals[i].Rule = renamePreds(ast.NewProgram(a.Rule), back).Rules[0]
			ftr.AtomRemovals[i].Atom.Pred = back(a.Atom.Pred)
		}
		ftr.RuleRemovals = renamePreds(ast.NewProgram(ftr.RuleRemovals...), back).Rules
		if got, want := renderRun(out, tr), renderRun(renamePreds(fout, back), ftr); got != want {
			t.Fatalf("seed %d: Program differs from the encode → Fig. 2 → decode fork\ninput:\n%s\ngot:\n%s\nwant:\n%s", seed, p, got, want)
		}
		removed += tr.AtomsRemoved() + tr.RulesRemoved()
		for _, a := range tr.AtomRemovals {
			if a.Negated {
				negRemoved++
			}
		}
		for _, c := range []struct{ p, enc *ast.Program }{{p, encodeNeg(renamePreds(p, ref))}, {out, fenc}} {
			got, err := IsMinimal(context.Background(), c.p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := literalIsMinimal(c.enc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d: IsMinimal = %v, the fork's literal test says %v\n%s", seed, got, want, c.p)
			}
		}
	}
	if removed < programs || negRemoved == 0 || idbNegated == 0 {
		t.Fatalf("%d deletions, %d of them negated literals, over %d programs, %d negating an intensional predicate: the generator exercises too little",
			removed, negRemoved, programs, idbNegated)
	}
	t.Logf("%d programs (%d negating an intensional predicate), %d deletions, %d negated literals removed", programs, idbNegated, removed, negRemoved)
}
