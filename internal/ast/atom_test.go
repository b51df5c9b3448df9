package ast

import (
	"reflect"
	"testing"
)

func atomGxz() Atom { return NewAtom("G", Var("x"), Var("z")) }

func TestAtomBasics(t *testing.T) {
	a := NewAtom("Q", Var("x"), Var("y"), IntTerm(3), IntTerm(10))
	if a.Arity() != 4 {
		t.Fatalf("Arity = %d", a.Arity())
	}
	if a.IsGround() {
		t.Fatal("atom with variables reported ground")
	}
	if got := a.String(); got != "Q(x, y, 3, 10)" {
		t.Fatalf("String = %q", got)
	}
	g := NewAtom("Q", IntTerm(1), IntTerm(2))
	if !g.IsGround() {
		t.Fatal("constant atom not ground")
	}
}

func TestAtomVarsOrder(t *testing.T) {
	a := NewAtom("P", Var("z"), Var("x"), Var("z"), IntTerm(1), Var("y"))
	want := []string{"z", "x", "y"}
	if got := a.Vars(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	if !a.HasVar("x") || a.HasVar("w") {
		t.Fatal("HasVar wrong")
	}
}

func TestAtomEqualClone(t *testing.T) {
	a := NewAtom("G", Var("x"), IntTerm(5))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Args[0] = Var("y")
	if a.Equal(b) {
		t.Fatal("mutating clone affected equality")
	}
	if a.Args[0].Name != "x" {
		t.Fatal("clone shares argument storage")
	}
	if a.Equal(NewAtom("H", Var("x"), IntTerm(5))) {
		t.Fatal("different predicates equal")
	}
	if a.Equal(NewAtom("G", Var("x"))) {
		t.Fatal("different arities equal")
	}
}

func TestApplySubst(t *testing.T) {
	a := NewAtom("G", Var("x"), Var("y"), Var("x"))
	s := Subst{"x": IntTerm(1), "y": Var("w")}
	got := a.Apply(s)
	want := NewAtom("G", IntTerm(1), Var("w"), IntTerm(1))
	if !got.Equal(want) {
		t.Fatalf("Apply = %v, want %v", got, want)
	}
	// Simultaneous application: replacement terms are not rewritten again.
	s2 := Subst{"x": Var("y"), "y": Var("z")}
	got2 := NewAtom("P", Var("x"), Var("y")).Apply(s2)
	want2 := NewAtom("P", Var("y"), Var("z"))
	if !got2.Equal(want2) {
		t.Fatalf("simultaneous Apply = %v, want %v", got2, want2)
	}
}

func TestGround(t *testing.T) {
	a := NewAtom("G", Var("x"), IntTerm(7), Var("y"))
	b := Binding{"x": Int(1), "y": Int(2)}
	g, err := a.Ground(b)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(NewGroundAtom("G", Int(1), Int(7), Int(2))) {
		t.Fatalf("Ground = %v", g)
	}
	if _, err := a.Ground(Binding{"x": Int(1)}); err == nil {
		t.Fatal("Ground succeeded with unbound variable")
	}
}

func TestMatchGround(t *testing.T) {
	a := NewAtom("G", Var("x"), Var("y"), Var("x"))
	b := Binding{}
	added, ok := a.MatchGround("G", []Const{Int(1), Int(2), Int(1)}, b)
	if !ok {
		t.Fatal("match failed")
	}
	if b["x"] != Int(1) || b["y"] != Int(2) {
		t.Fatalf("binding wrong: %v", b)
	}
	if len(added) != 2 {
		t.Fatalf("added = %v", added)
	}

	// Repeated variable conflicts must fail and leave the binding unchanged.
	b2 := Binding{"z": Int(9)}
	if _, ok := a.MatchGround("G", []Const{Int(1), Int(2), Int(3)}, b2); ok {
		t.Fatal("match succeeded with conflicting repeated variable")
	}
	if len(b2) != 1 || b2["z"] != Int(9) {
		t.Fatalf("failed match mutated binding: %v", b2)
	}

	// Existing bindings are respected.
	b3 := Binding{"x": Int(5)}
	if _, ok := a.MatchGround("G", []Const{Int(1), Int(2), Int(1)}, b3); ok {
		t.Fatal("match ignored pre-existing binding")
	}
	if _, ok := a.MatchGround("G", []Const{Int(5), Int(2), Int(5)}, b3); !ok {
		t.Fatal("match failed with compatible pre-existing binding")
	}

	// Constants in the pattern must match exactly.
	c := NewAtom("G", IntTerm(4), Var("y"))
	if _, ok := c.MatchGround("G", []Const{Int(4), Int(8)}, Binding{}); !ok {
		t.Fatal("constant pattern failed to match")
	}
	if _, ok := c.MatchGround("G", []Const{Int(5), Int(8)}, Binding{}); ok {
		t.Fatal("constant pattern matched wrong constant")
	}

	// Predicate and arity mismatches.
	if _, ok := a.MatchGround("H", []Const{Int(1), Int(2), Int(1)}, Binding{}); ok {
		t.Fatal("matched wrong predicate")
	}
	if _, ok := a.MatchGround("G", []Const{Int(1), Int(2)}, Binding{}); ok {
		t.Fatal("matched wrong arity")
	}
}

func TestGroundAtomKey(t *testing.T) {
	a := NewGroundAtom("G", Int(1), Int(2))
	b := NewGroundAtom("G", Int(1), Int(2))
	c := NewGroundAtom("G", Int(1), Int(3))
	d := NewGroundAtom("H", Int(1), Int(2))
	if a.Key() != b.Key() {
		t.Fatal("equal atoms have different keys")
	}
	if a.Key() == c.Key() || a.Key() == d.Key() {
		t.Fatal("distinct atoms share a key")
	}
	// Negative constants and generated constants must key distinctly too.
	e := NewGroundAtom("G", Int(-1), NullConst(0))
	f := NewGroundAtom("G", Int(-1), NullConst(1))
	if e.Key() == f.Key() {
		t.Fatal("distinct nulls share a key")
	}
}

func TestVarsOfAtomsAndConsts(t *testing.T) {
	atoms := []Atom{
		NewAtom("A", Var("x"), Var("y")),
		NewAtom("B", Var("y"), IntTerm(3), Var("w")),
	}
	want := []string{"x", "y", "w"}
	if got := VarsOfAtoms(atoms); !reflect.DeepEqual(got, want) {
		t.Fatalf("VarsOfAtoms = %v", got)
	}
}

func TestRenameAtom(t *testing.T) {
	a := NewAtom("A", Var("x"), IntTerm(2), Var("y"))
	got := a.Rename(func(v string) string { return v + "'" })
	want := NewAtom("A", Var("x'"), IntTerm(2), Var("y'"))
	if !got.Equal(want) {
		t.Fatalf("Rename = %v", got)
	}
}

func TestGroundAtomsConjunction(t *testing.T) {
	atoms := []Atom{NewAtom("A", Var("x")), NewAtom("B", Var("x"), Var("y"))}
	b := Binding{"x": Int(1), "y": Int(2)}
	gs, err := GroundAtoms(atoms, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || !gs[1].Equal(NewGroundAtom("B", Int(1), Int(2))) {
		t.Fatalf("GroundAtoms = %v", gs)
	}
	if _, err := GroundAtoms(atoms, Binding{"x": Int(1)}); err == nil {
		t.Fatal("GroundAtoms succeeded with unbound variable")
	}
}

func TestFormatWithSymbols(t *testing.T) {
	tab := NewSymbolTable()
	ann := tab.Intern("ann")
	a := NewAtom("Person", Con(ann), Var("x"))
	if got := a.Format(tab); got != `Person("ann", x)` {
		t.Fatalf("Format = %q", got)
	}
	g := NewGroundAtom("Person", ann)
	if got := g.Format(tab); got != `Person("ann")` {
		t.Fatalf("Format = %q", got)
	}
	if got := g.Atom(); !got.IsGround() || got.Args[0].Val != ann {
		t.Fatalf("Atom() = %v", got)
	}
}
