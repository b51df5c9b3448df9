package depgraph

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
)

func rule(head ast.Atom, body []ast.Atom, neg ...ast.Atom) ast.Rule {
	return ast.Rule{Head: head, Body: body, NegBody: neg}
}

func at(pred string, vars ...string) ast.Atom {
	args := make([]ast.Term, len(vars))
	for i, v := range vars {
		args[i] = ast.Var(v)
	}
	return ast.NewAtom(pred, args...)
}

// Mutual recursion through negation: P :- E, !Q and Q :- E, P form a cycle
// P → Q → P with one negative edge — recursive, unstratifiable, and the
// negative-cycle witness names both predicates.
func TestMutualRecursionThroughNegation(t *testing.T) {
	p := ast.NewProgram(
		rule(at("P", "x"), []ast.Atom{at("E", "x")}, at("Q", "x")),
		rule(at("Q", "x"), []ast.Atom{at("E", "x"), at("P", "x")}),
	)
	g := Build(p)
	rec := g.RecursivePreds()
	if !rec["P"] || !rec["Q"] || rec["E"] {
		t.Fatalf("RecursivePreds = %v", rec)
	}
	if _, err := Strata(p); err == nil {
		t.Fatal("negation through recursion not rejected")
	}
	cycle, ok := g.Cycle("Q", "P")
	if !ok {
		t.Fatal("the negative edge Q → P closes no cycle")
	}
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("witness %v is not a closed cycle", cycle)
	}
	onCycle := map[string]bool{}
	for _, pred := range cycle {
		onCycle[pred] = true
	}
	if !onCycle["P"] || !onCycle["Q"] || onCycle["E"] {
		t.Fatalf("witness %v should pass through exactly P and Q", cycle)
	}
}

// Self-negation: S :- E, !S is the smallest unstratifiable program; the
// witness is the length-1 cycle [S, S].
func TestSelfNegation(t *testing.T) {
	p := ast.NewProgram(
		rule(at("S", "x"), []ast.Atom{at("E", "x")}, at("S", "x")),
	)
	g := Build(p)
	if !g.RecursivePreds()["S"] {
		t.Fatal("self-negating S not recursive")
	}
	if _, err := Strata(p); err == nil {
		t.Fatal("self-negation not rejected")
	}
	cycle, ok := g.Cycle("S", "S")
	if !ok {
		t.Fatal("the negative edge S → S closes no cycle")
	}
	if !reflect.DeepEqual(cycle, []string{"S", "S"}) {
		t.Fatalf("witness = %v, want [S S]", cycle)
	}
}

// A predicate can be both extensional and intensional: E has facts in some
// database *and* a rule E :- F. The graph treats it like any node — edges in
// and out, no recursion, a positive-only stratification.
func TestPredBothEDBAndIDB(t *testing.T) {
	p := ast.NewProgram(
		rule(at("P", "x"), []ast.Atom{at("E", "x")}),
		rule(at("E", "x"), []ast.Atom{at("F", "x")}),
	)
	g := Build(p)
	if d := g.Derivable(map[string]bool{"F": true}); !d["E"] || !d["P"] {
		t.Fatalf("Derivable from F = %v: missing edges through the EDB/IDB predicate", d)
	}
	if len(g.RecursivePreds()) != 0 {
		t.Fatalf("RecursivePreds = %v, want none", g.RecursivePreds())
	}
	strata, err := Strata(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 1 {
		t.Fatalf("strata = %v, want one stratum", strata)
	}
	if err := g.Stratified(); err != nil {
		t.Fatalf("phantom negative cycle: %v", err)
	}
}

// Single-rule nonlinear recursion: G(x,z) :- G(x,y), G(y,z) with no exit
// rule. One rule, one predicate, two recursive body occurrences.
func TestSingleRuleNonlinearRecursion(t *testing.T) {
	p := ast.NewProgram(
		rule(at("G", "x", "z"), []ast.Atom{at("G", "x", "y"), at("G", "y", "z")}),
	)
	g := Build(p)
	if cycle, ok := g.Cycle("G", "G"); !ok || !reflect.DeepEqual(cycle, []string{"G", "G"}) {
		t.Fatalf("self edge: Cycle(G, G) = %v, %v", cycle, ok)
	}
	if groups, err := g.RuleGroups(); err != nil || !reflect.DeepEqual(groups, [][]int{{0}}) {
		t.Fatalf("RuleGroups = %v, %v", groups, err)
	}
	if !g.RecursivePreds()["G"] {
		t.Fatal("G not recursive")
	}
}

// Three independent P :- E, !Q / Q :- E, P cycles: stratification fails on
// each, and every call names the same one — the first negative edge inside a
// component in first-seen order — through Strata and
// Stratified alike.
func TestStratifyErrorIsDeterministic(t *testing.T) {
	p := ast.NewProgram()
	for i := 1; i <= 3; i++ {
		P, Q := fmt.Sprintf("P%d", i), fmt.Sprintf("Q%d", i)
		p.Rules = append(p.Rules,
			rule(at(P, "x"), []ast.Atom{at("E", "x")}, at(Q, "x")),
			rule(at(Q, "x"), []ast.Atom{at("E", "x"), at(P, "x")}))
	}
	const want = "depgraph: program is not stratifiable: negation through recursion between Q1 and P1"
	for i := 0; i < 200; i++ {
		if _, err := Strata(p); err == nil || err.Error() != want {
			t.Fatalf("call %d: Strata error %v, want %q", i, err, want)
		}
		if err := Build(p).Stratified(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Stratified() = %v, want %q", i, err, want)
		}
	}
}
