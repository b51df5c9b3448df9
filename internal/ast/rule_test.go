package ast

import (
	"reflect"
	"strings"
	"testing"
)

// tcProgram returns the transitive-closure program of Example 1:
//
//	G(x,z) :- A(x,z).
//	G(x,z) :- G(x,y), G(y,z).
func tcProgram() *Program {
	return NewProgram(
		NewRule(atomGxz(), NewAtom("A", Var("x"), Var("z"))),
		NewRule(atomGxz(),
			NewAtom("G", Var("x"), Var("y")),
			NewAtom("G", Var("y"), Var("z"))),
	)
}

func TestRuleString(t *testing.T) {
	r := tcProgram().Rules[1]
	if got := r.String(); got != "G(x, z) :- G(x, y), G(y, z)." {
		t.Fatalf("String = %q", got)
	}
	fact := NewRule(NewAtom("A", IntTerm(1), IntTerm(2)))
	if got := fact.String(); got != "A(1, 2)." {
		t.Fatalf("fact String = %q", got)
	}
}

func TestRuleValidate(t *testing.T) {
	good := tcProgram().Rules[1]
	if err := good.Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}

	// Range restriction: head variable not in body (Section II).
	bad := NewRule(NewAtom("G", Var("x"), Var("q")), NewAtom("A", Var("x"), Var("z")))
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "range-restricted") {
		t.Fatalf("range restriction not enforced: %v", err)
	}

	// Empty body with non-ground head: the Anc(x,x):- case the paper rules out.
	anc := NewRule(NewAtom("Anc", Var("x"), Var("x")))
	if err := anc.Validate(); err == nil {
		t.Fatal("empty-body rule with variables accepted")
	}

	// Ground fact rules are fine.
	fact := NewRule(NewAtom("A", IntTerm(1), IntTerm(2)))
	if err := fact.Validate(); err != nil {
		t.Fatalf("ground fact rejected: %v", err)
	}

	// Unsafe negation.
	neg := Rule{
		Head:    NewAtom("P", Var("x")),
		Body:    []Atom{NewAtom("A", Var("x"))},
		NegBody: []Atom{NewAtom("B", Var("w"))},
	}
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("unsafe negation not caught: %v", err)
	}

	// Safe negation passes.
	neg.NegBody = []Atom{NewAtom("B", Var("x"))}
	if err := neg.Validate(); err != nil {
		t.Fatalf("safe negation rejected: %v", err)
	}

	// Only negated atoms in the body.
	onlyNeg := Rule{Head: NewAtom("P", IntTerm(1)), NegBody: []Atom{NewAtom("B", IntTerm(1))}}
	if err := onlyNeg.Validate(); err == nil {
		t.Fatal("rule with only negated body accepted")
	}
}

func TestRuleVars(t *testing.T) {
	r := NewRule(
		NewAtom("G", Var("x"), Var("z")),
		NewAtom("G", Var("x"), Var("w"), Var("z")),
		NewAtom("A", Var("w"), Var("y")),
	)
	want := []string{"x", "z", "w", "y"}
	if got := r.Vars(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
}

func TestWithoutBodyAtom(t *testing.T) {
	// The Example 7 rule; deleting A(w,y) yields the Example 7 minimal rule.
	r := NewRule(
		NewAtom("G", Var("x"), Var("y"), Var("z")),
		NewAtom("G", Var("x"), Var("w"), Var("z")),
		NewAtom("A", Var("w"), Var("y")),
		NewAtom("A", Var("w"), Var("z")),
		NewAtom("A", Var("z"), Var("z")),
		NewAtom("A", Var("z"), Var("y")),
	)
	got := r.WithoutBodyAtom(1)
	if len(got.Body) != 4 {
		t.Fatalf("body length = %d", len(got.Body))
	}
	if got.Body[1].String() != "A(w, z)" {
		t.Fatalf("wrong atom removed: %v", got)
	}
	// Original untouched.
	if len(r.Body) != 5 {
		t.Fatal("WithoutBodyAtom mutated the receiver")
	}
}

func TestRenameApart(t *testing.T) {
	r := tcProgram().Rules[1]
	r1 := r.RenameApart(1)
	r2 := r.RenameApart(2)
	vars1 := make(map[string]bool)
	for _, v := range r1.Vars() {
		vars1[v] = true
	}
	for _, v := range r2.Vars() {
		if vars1[v] {
			t.Fatalf("RenameApart with different tags shares variable %s", v)
		}
	}
}

func TestFreeze(t *testing.T) {
	gen := NewFrozenGen()
	r := tcProgram().Rules[1]
	head, body, theta := r.Freeze(gen)
	if len(body) != 2 {
		t.Fatalf("frozen body size = %d", len(body))
	}
	// All frozen constants distinct, and head consistent with theta.
	seen := make(map[Const]bool)
	for _, c := range theta {
		if !IsFrozen(c) {
			t.Fatalf("theta assigned non-frozen constant %v", c)
		}
		if seen[c] {
			t.Fatal("theta is not one-to-one")
		}
		seen[c] = true
	}
	if head.Args[0] != theta["x"] || head.Args[1] != theta["z"] {
		t.Fatalf("frozen head %v inconsistent with theta %v", head, theta)
	}
	if body[0].Args[0] != theta["x"] || body[0].Args[1] != theta["y"] {
		t.Fatalf("frozen body %v inconsistent with theta", body)
	}
}

func TestRuleApplyAndClone(t *testing.T) {
	r := tcProgram().Rules[1]
	c := r.Clone()
	c.Body[0].Args[0] = Var("q")
	if r.Body[0].Args[0].Name != "x" {
		t.Fatal("Clone shares body storage")
	}
}

func TestRuleEqual(t *testing.T) {
	p := tcProgram()
	if !p.Rules[0].Equal(p.Rules[0].Clone()) {
		t.Fatal("rule not equal to its clone")
	}
	if p.Rules[0].Equal(p.Rules[1]) {
		t.Fatal("distinct rules equal")
	}
	neg := p.Rules[0].Clone()
	neg.NegBody = []Atom{NewAtom("B", Var("x"))}
	if p.Rules[0].Equal(neg) {
		t.Fatal("rule equal despite differing NegBody")
	}
}

func TestNegationFormatting(t *testing.T) {
	r := Rule{
		Head:    NewAtom("P", Var("x")),
		Body:    []Atom{NewAtom("A", Var("x"))},
		NegBody: []Atom{NewAtom("B", Var("x"))},
	}
	if got := r.String(); got != "P(x) :- A(x), !B(x)." {
		t.Fatalf("String = %q", got)
	}
	if !r.HasNegation() {
		t.Fatal("HasNegation false")
	}
}
