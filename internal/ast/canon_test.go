package ast

import (
	"fmt"
	"testing"
)

func rule(head Atom, body ...Atom) Rule { return Rule{Head: head, Body: body} }

// canonCorpus is a set of pairwise canonically-distinct programs covering
// the separator edge cases the canonical rendering must keep apart:
// constant vs variable, predicate-name boundaries, rule-order sensitivity,
// body-order sensitivity, and arity differences.
func canonCorpus() []*Program {
	a := func(pred string, ts ...Term) Atom { return Atom{Pred: pred, Args: ts} }
	v := Var
	c := func(n int64) Term { return IntTerm(n) }
	return []*Program{
		NewProgram(rule(a("P", v("x")), a("A", v("x")))),
		NewProgram(rule(a("P", v("x")), a("A", v("x"), v("x")))),
		NewProgram(rule(a("P", v("x")), a("A", v("x"), v("y")))),
		NewProgram(rule(a("P", c(0)), a("A", c(0)))),
		NewProgram(rule(a("P", c(1)), a("A", c(1)))),
		// Same letters, different predicate split: "AB(x)" vs "A(x), B(x)"
		// must not collide.
		NewProgram(rule(a("P", v("x")), a("AB", v("x")))),
		NewProgram(rule(a("P", v("x")), a("A", v("x")), a("B", v("x")))),
		// Variable identified vs distinct across atoms.
		NewProgram(rule(a("P", v("x")), a("A", v("x")), a("B", v("y")))),
		// Rule order matters (it pins the prepared schedule).
		NewProgram(
			rule(a("P", v("x")), a("A", v("x"))),
			rule(a("Q", v("x")), a("B", v("x"))),
		),
		NewProgram(
			rule(a("Q", v("x")), a("B", v("x"))),
			rule(a("P", v("x")), a("A", v("x"))),
		),
		// Body order matters (join orders and emission order start from it).
		NewProgram(rule(a("P", v("x")), a("B", v("x")), a("A", v("x")))),
		// Negation present vs encoded-positive must differ.
		NewProgram(Rule{Head: a("P", v("x")), Body: []Atom{a("A", v("x"))}, NegBody: []Atom{a("B", v("x"))}}),
	}
}

// TestCanonicalInjectivityCorpus checks that every pair of corpus programs
// gets a distinct canonical string (and, for the cache's sake, that their
// hashes are distinct on this corpus), while alpha-renamed twins collapse
// to the same string.
func TestCanonicalInjectivityCorpus(t *testing.T) {
	corpus := canonCorpus()
	seen := map[string]int{}
	hashes := map[uint64]int{}
	for i, p := range corpus {
		canon := p.CanonicalString()
		if j, dup := seen[canon]; dup {
			t.Errorf("programs %d and %d share canonical form %q:\n%s\nvs\n%s", i, j, canon, corpus[j], p)
		}
		seen[canon] = i
		h := p.CanonicalHash()
		if j, dup := hashes[h]; dup {
			t.Errorf("programs %d and %d collide on hash %x", i, j, h)
		}
		hashes[h] = i
	}
}

// TestCanonicalAlphaInvariance checks the defining property: renaming the
// variables of any rule (consistently within the rule) leaves the canonical
// string unchanged, and the canonical form survives Clone.
func TestCanonicalAlphaInvariance(t *testing.T) {
	for i, p := range canonCorpus() {
		canon := p.CanonicalString()
		if got := p.Clone().CanonicalString(); got != canon {
			t.Errorf("program %d: Clone changed canonical form", i)
		}
		renamed := p.Clone()
		for j := range renamed.Rules {
			r := renamed.Rules[j].Rename(func(v string) string { return "zz_" + v })
			renamed.Rules[j] = r
		}
		if got := renamed.CanonicalString(); got != canon {
			t.Errorf("program %d: alpha-renaming changed canonical form:\n%q\nvs\n%q", i, canon, got)
		}
	}
}

// FuzzCanonicalRule fuzzes the per-rule canonical rendering over generated
// rule shapes: the rendering must be alpha-invariant and must distinguish a
// rule from a structurally perturbed copy.
func FuzzCanonicalRule(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(0), uint8(3))
	f.Add(uint8(1), uint8(0), uint8(2), uint8(2))
	f.Add(uint8(3), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, nBody, mix, constSel, arity uint8) {
		vars := []string{"x", "y", "z"}
		mkAtom := func(pred string, salt uint8) Atom {
			n := int(arity%3) + 1
			args := make([]Term, n)
			for i := range args {
				sel := (int(mix) + i + int(salt)) % 4
				if sel == int(constSel)%4 {
					args[i] = IntTerm(int64(sel))
				} else {
					args[i] = Var(vars[sel%len(vars)])
				}
			}
			return Atom{Pred: pred, Args: args}
		}
		r := Rule{Head: mkAtom("H", 0)}
		for i := 0; i < int(nBody%4)+1; i++ {
			r.Body = append(r.Body, mkAtom(fmt.Sprintf("B%d", i%2), uint8(i)))
		}
		canon := r.CanonicalString()

		// Alpha-invariance.
		ren := r.Rename(func(v string) string { return v + "_r" })
		if ren.CanonicalString() != canon {
			t.Fatalf("alpha-renaming changed canonical form of %s", r)
		}
		// Injectivity against perturbations: adding an atom, changing a
		// predicate, or changing a constant must change the form.
		longer := r
		longer.Body = append(append([]Atom(nil), r.Body...), mkAtom("EXTRA", 9))
		if longer.CanonicalString() == canon {
			t.Fatalf("adding a body atom did not change canonical form of %s", r)
		}
		diffPred := r.Clone()
		diffPred.Head.Pred = "H2"
		if diffPred.CanonicalString() == canon {
			t.Fatalf("changing head predicate did not change canonical form of %s", r)
		}
	})
}
