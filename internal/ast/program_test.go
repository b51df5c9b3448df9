package ast

import (
	"reflect"
	"strings"
	"testing"
)

func TestProgramIDBEDBPredicates(t *testing.T) {
	p := tcProgram()
	idb := p.IDBPredicates()
	if !reflect.DeepEqual(idb, map[string]bool{"G": true}) {
		t.Fatalf("IDB = %v", idb)
	}
	edb := p.EDBPredicates()
	if !reflect.DeepEqual(edb, map[string]bool{"A": true}) {
		t.Fatalf("EDB = %v", edb)
	}
}

func TestProgramValidateArity(t *testing.T) {
	p := NewProgram(
		NewRule(NewAtom("G", Var("x")), NewAtom("A", Var("x"))),
		NewRule(NewAtom("G", Var("x"), Var("y")), NewAtom("A", Var("x"), Var("y"))),
	)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "arities") {
		t.Fatalf("inconsistent arity not caught: %v", err)
	}
	if err := tcProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

// TestProgramValidateErrorsNameTheRule pins the messages: the failing rule's
// position is part of both kinds of error.
func TestProgramValidateErrorsNameTheRule(t *testing.T) {
	clash := NewProgram(
		NewRule(atomGxz(), NewAtom("A", Var("x"), Var("z"))),
		NewRule(atomGxz(), NewAtom("A", Var("x"), Var("z")), NewAtom("A", Var("x"))),
	)
	if err := clash.Validate(); err == nil || err.Error() != "ast: predicate A used with arities 2 and 1 (rule 1)" {
		t.Fatalf("arity clash reported as %v", err)
	}
	unsafe := NewProgram(
		NewRule(atomGxz(), NewAtom("A", Var("x"), Var("z"))),
		NewRule(atomGxz(), NewAtom("A", Var("x"), Var("y"))),
	)
	want := "rule 1: " + unsafe.Rules[1].Validate().Error()
	if err := unsafe.Validate(); err == nil || err.Error() != want {
		t.Fatalf("ill-formed rule reported as %v, want %s", err, want)
	}
}

// TestProgramValidateAllocs: validating a valid program allocates its arity
// table and nothing per rule — no rendered position, no per-rule variable set.
func TestProgramValidateAllocs(t *testing.T) {
	p := NewProgram()
	for i := 0; i < 6; i++ {
		p.Rules = append(p.Rules, tcProgram().Rules...)
	}
	if len(p.Rules) != 12 || p.Validate() != nil {
		t.Fatalf("want a valid 12-rule program, have %d rules, err %v", len(p.Rules), p.Validate())
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = p.Validate() }); allocs > 2 {
		t.Fatalf("Validate allocates %.0f times on a valid 12-rule program; the success path should cost the arity table only", allocs)
	}
}

func TestProgramPredicates(t *testing.T) {
	p := tcProgram()
	sigs := p.Predicates()
	want := []PredicateSig{{Name: "A", Arity: 2}, {Name: "G", Arity: 2}}
	if !reflect.DeepEqual(sigs, want) {
		t.Fatalf("Predicates = %v", sigs)
	}
}

func TestWithoutRuleAndReplaceRule(t *testing.T) {
	p := tcProgram()
	q := p.WithoutRule(0)
	if len(q.Rules) != 1 || q.Rules[0].Body[0].Pred != "G" {
		t.Fatalf("WithoutRule = %v", q)
	}
	if len(p.Rules) != 2 {
		t.Fatal("WithoutRule mutated receiver")
	}
	r := NewRule(atomGxz(), NewAtom("B", Var("x"), Var("z")))
	p2 := p.ReplaceRule(0, r)
	if p2.Rules[0].Body[0].Pred != "B" || p.Rules[0].Body[0].Pred != "A" {
		t.Fatal("ReplaceRule wrong or mutated receiver")
	}
}

func TestInitRules(t *testing.T) {
	// Example 17's program: only the first rule is an initialization rule.
	p := tcProgram()
	init := p.InitRules()
	if len(init.Rules) != 1 {
		t.Fatalf("InitRules = %v", init)
	}
	if init.Rules[0].Body[0].Pred != "A" {
		t.Fatalf("wrong init rule: %v", init.Rules[0])
	}
}

func TestProgramCloneAndEqual(t *testing.T) {
	p := tcProgram()
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.Rules[0].Body[0].Args[0] = Var("q")
	if p.Equal(q) {
		t.Fatal("mutated clone still equal")
	}
	if p.Rules[0].Body[0].Args[0].Name != "x" {
		t.Fatal("clone shares storage")
	}
}

func TestProgramConstsAndBodyAtomCount(t *testing.T) {
	p := NewProgram(
		NewRule(NewAtom("G", Var("x"), IntTerm(3)), NewAtom("A", Var("x"), IntTerm(10))),
		NewRule(atomGxz(), NewAtom("G", Var("x"), Var("y")), NewAtom("G", Var("y"), Var("z"))),
	)
	if got := p.BodyAtomCount(); got != 3 {
		t.Fatalf("BodyAtomCount = %d", got)
	}
}

func TestProgramFormat(t *testing.T) {
	p := tcProgram()
	want := "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n"
	if got := p.String(); got != want {
		t.Fatalf("String = %q", got)
	}
}

func TestHasNegation(t *testing.T) {
	p := tcProgram()
	if p.HasNegation() {
		t.Fatal("pure program reports negation")
	}
	p.Rules[0].NegBody = []Atom{NewAtom("B", Var("x"))}
	if !p.HasNegation() {
		t.Fatal("negation not detected")
	}
}
