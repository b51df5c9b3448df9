package ast

import (
	"reflect"
	"testing"
)

// exampleTgd is the Section VIII running tgd G(x,z) -> A(x,w).
func exampleTgd() TGD {
	return NewTGD(
		[]Atom{NewAtom("G", Var("x"), Var("z"))},
		[]Atom{NewAtom("A", Var("x"), Var("w"))},
	)
}

func TestTgdQuantifiers(t *testing.T) {
	tau := exampleTgd()
	if got := tau.UniversalVars(); !reflect.DeepEqual(got, []string{"x", "z"}) {
		t.Fatalf("UniversalVars = %v", got)
	}
	if got := tau.ExistentialVars(); !reflect.DeepEqual(got, []string{"w"}) {
		t.Fatalf("ExistentialVars = %v", got)
	}
	if tau.IsFull() {
		t.Fatal("embedded tgd reported full")
	}
}

func TestTgdFullAsRules(t *testing.T) {
	// Example 10: A(x,y,z) ∧ B(w,y,v) → A(x,y,v) ∧ T(w,y,z) is full and
	// equivalent to two rules.
	tau := NewTGD(
		[]Atom{
			NewAtom("A", Var("x"), Var("y"), Var("z")),
			NewAtom("B", Var("w"), Var("y"), Var("v")),
		},
		[]Atom{
			NewAtom("A", Var("x"), Var("y"), Var("v")),
			NewAtom("T", Var("w"), Var("y"), Var("z")),
		},
	)
	if !tau.IsFull() {
		t.Fatal("full tgd reported embedded")
	}
	rules := tau.AsRules()
	if len(rules) != 2 {
		t.Fatalf("AsRules produced %d rules", len(rules))
	}
	if rules[0].Head.Pred != "A" || rules[1].Head.Pred != "T" {
		t.Fatalf("AsRules heads wrong: %v", rules)
	}
	for _, r := range rules {
		if len(r.Body) != 2 {
			t.Fatalf("AsRules body wrong: %v", r)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("AsRules produced invalid rule: %v", err)
		}
	}
}

func TestTgdAsRulesPanicsOnEmbedded(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsRules on embedded tgd did not panic")
		}
	}()
	exampleTgd().AsRules()
}

func TestTgdValidate(t *testing.T) {
	if err := exampleTgd().Validate(); err != nil {
		t.Fatalf("valid tgd rejected: %v", err)
	}
	if err := (TGD{Rhs: []Atom{NewAtom("A", Var("x"))}}).Validate(); err == nil {
		t.Fatal("empty LHS accepted")
	}
	if err := (TGD{Lhs: []Atom{NewAtom("A", Var("x"))}}).Validate(); err == nil {
		t.Fatal("empty RHS accepted")
	}
}

func TestTgdString(t *testing.T) {
	tau := NewTGD(
		[]Atom{NewAtom("G", Var("y"), Var("z"))},
		[]Atom{NewAtom("G", Var("y"), Var("w")), NewAtom("C", Var("w"))},
	)
	if got := tau.String(); got != "G(y, z) -> G(y, w), C(w)." {
		t.Fatalf("String = %q", got)
	}
}

func TestTgdCloneEqualRename(t *testing.T) {
	tau := exampleTgd()
	u := tau.Clone()
	if tau.String() != u.String() {
		t.Fatal("clone not equal")
	}
	u.Rhs[0].Args[1] = Var("q")
	if tau.String() == u.String() || tau.Rhs[0].Args[1].Name != "w" {
		t.Fatal("clone shares storage or equality broken")
	}
	r := tau.Rename(func(v string) string { return v + "1" })
	if got := r.String(); got != "G(x1, z1) -> A(x1, w1)." {
		t.Fatalf("Rename = %q", got)
	}
}
