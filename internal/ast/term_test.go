package ast

import "testing"

func TestTermString(t *testing.T) {
	if got := Var("x").String(); got != "x" {
		t.Fatalf("Var String = %q", got)
	}
	if got := IntTerm(-3).String(); got != "-3" {
		t.Fatalf("Const String = %q", got)
	}
	if got := Con(NullConst(2)).String(); got != "δ2" {
		t.Fatalf("null String = %q", got)
	}
}

func TestBindingSubst(t *testing.T) {
	b := Binding{"x": Int(1), "y": Int(2)}
	s := b.Subst()
	if len(s) != 2 || !s["x"].Equal(IntTerm(1)) || !s["y"].Equal(IntTerm(2)) {
		t.Fatalf("Subst = %v", s)
	}
	// The substitution is a copy, not a view.
	s["x"] = IntTerm(9)
	if b["x"] != Int(1) {
		t.Fatal("Subst aliases the binding")
	}
}

func TestTermApply(t *testing.T) {
	s := Subst{"x": IntTerm(4)}
	if got := Var("x").Apply(s); !got.Equal(IntTerm(4)) {
		t.Fatalf("Apply = %v", got)
	}
	if got := Var("y").Apply(s); !got.Equal(Var("y")) {
		t.Fatalf("unbound Apply = %v", got)
	}
	if got := IntTerm(7).Apply(s); !got.Equal(IntTerm(7)) {
		t.Fatalf("constant Apply = %v", got)
	}
}

func TestTermEqualKinds(t *testing.T) {
	if Var("x").Equal(IntTerm(0)) {
		t.Fatal("variable equal to constant")
	}
	if !Var("x").Equal(Var("x")) || Var("x").Equal(Var("y")) {
		t.Fatal("variable equality wrong")
	}
	if !IntTerm(3).Equal(IntTerm(3)) || IntTerm(3).Equal(IntTerm(4)) {
		t.Fatal("constant equality wrong")
	}
}

func TestUnifierApplyAll(t *testing.T) {
	u := NewUnifier()
	if !u.UnifyAtoms(NewAtom("P", Var("x")), NewAtom("P", IntTerm(5))) {
		t.Fatal("unify failed")
	}
	got := u.ApplyAll([]Atom{NewAtom("Q", Var("x"), Var("y"))})
	if !got[0].Equal(NewAtom("Q", IntTerm(5), Var("y"))) {
		t.Fatalf("ApplyAll = %v", got)
	}
}
