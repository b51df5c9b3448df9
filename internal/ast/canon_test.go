package ast

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
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
// gets a distinct canonical string, while alpha-renamed twins collapse to
// the same string.
func TestCanonicalInjectivityCorpus(t *testing.T) {
	corpus := canonCorpus()
	seen := map[string]int{}
	for i, p := range corpus {
		canon := p.CanonicalString()
		if j, dup := seen[canon]; dup {
			t.Errorf("programs %d and %d share canonical form %q:\n%s\nvs\n%s", i, j, canon, corpus[j], p)
		}
		seen[canon] = i
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

// mapCanonical is a reference rendering of the canonical form, written
// the plain way: a strings.Builder and a map numbering the variables.
// FuzzCanonicalRule holds AppendCanonical to it byte for byte.
func mapCanonical(r Rule) string {
	var sb strings.Builder
	names := make(map[string]int)
	writeAtom := func(a Atom) {
		sb.WriteString(a.Pred)
		sb.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			if t.IsVar {
				id, ok := names[t.Name]
				if !ok {
					id = len(names)
					names[t.Name] = id
				}
				sb.WriteByte('v')
				sb.WriteString(strconv.Itoa(id))
			} else {
				sb.WriteByte('#')
				sb.WriteString(strconv.FormatInt(int64(t.Val), 10))
			}
		}
		sb.WriteByte(')')
	}
	writeAtom(r.Head)
	sb.WriteString(":-")
	for i, a := range r.Body {
		if i > 0 {
			sb.WriteByte(',')
		}
		writeAtom(a)
	}
	for _, a := range r.NegBody {
		sb.WriteString(",!")
		writeAtom(a)
	}
	return sb.String()
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
		if arity%2 == 1 {
			r.NegBody = append(r.NegBody, mkAtom("N", nBody))
		}
		canon := r.CanonicalString()

		// The canonical string addresses the plan cache and the verdict
		// store: it must not move by a byte from the map-based rendering it
		// replaced, alone or appended behind other bytes.
		if want := mapCanonical(r); canon != want {
			t.Fatalf("canonical form of %s:\n got %q\nwant %q", r, canon, want)
		}
		if got := string(r.AppendCanonical([]byte("prefix\n"))); got != "prefix\n"+canon {
			t.Fatalf("AppendCanonical behind a prefix: %q", got)
		}

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

// TestAppendCanonicalMatchesMapRendering holds AppendCanonical to the
// map-based reference on random rules, on a rule with more variables than
// its stack-backed name list holds, and at zero allocations into a buffer
// with room.
func TestAppendCanonicalMatchesMapRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r := genRule(rng)
		if got, want := r.CanonicalString(), mapCanonical(r); got != want {
			t.Fatalf("canonical form of %s:\n got %q\nwant %q", r, got, want)
		}
	}
	wide := Rule{Head: NewAtom("H", Var("a0"))}
	for i := 0; i < 40; i++ {
		wide.Body = append(wide.Body, NewAtom("B", Var(fmt.Sprintf("a%d", i)), Var(fmt.Sprintf("a%d", (i*7)%40)), IntTerm(int64(i))))
	}
	if got, want := wide.CanonicalString(), mapCanonical(wide); got != want {
		t.Fatalf("canonical form of a 40-variable rule:\n got %q\nwant %q", got, want)
	}
	r := genRule(rng)
	buf := make([]byte, 0, 1024)
	if allocs := testing.AllocsPerRun(100, func() { buf = r.AppendCanonical(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendCanonical into a buffer with room allocates %.0f times", allocs)
	}
}

// TestProgramCanonicalStringAllocatesOnce pins the program key to one
// allocation: each rule is rendered into a stack buffer and written into a
// builder sized up front, whose buffer becomes the string without a copy.
func TestProgramCanonicalStringAllocatesOnce(t *testing.T) {
	x, y, z := Var("x"), Var("y"), Var("z")
	p := NewProgram()
	for i := 0; i < 8; i++ {
		g := "G" + strconv.Itoa(i)
		p.Rules = append(p.Rules, rule(NewAtom(g, x, z), NewAtom("A", x, y), NewAtom(g, y, z)))
	}
	var want strings.Builder
	for _, r := range p.Rules {
		want.WriteString(r.CanonicalString() + "\n")
	}
	if got := p.CanonicalString(); got != want.String() {
		t.Fatalf("program key %q, want the rule keys one a line %q", got, want.String())
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.CanonicalString() }); allocs != 1 {
		t.Fatalf("Program.CanonicalString allocates %.0f times, want 1", allocs)
	}
}
