package eval

import (
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/oracle"
)

// The reference the operator pipeline is compared against. It is Section III
// read literally — "repeatedly instantiate rules until no new ground atoms
// can be produced" — over the generic binding-map matcher oracle.MatchSeq, in
// source body order. It shares nothing with stream.go or its slot lowering.
// A program with negation runs stratum by stratum (depgraph.Strata), not on
// the engine's SCC schedule, so the schedule is checked too; a pure program
// runs the engine's SCC groups, because naive firing counts are defined per
// unit.

// oracleFire enumerates every instantiation of r's body among the facts of d
// stamped within w that passes r's negated atoms, handing each head to emit;
// it returns the number of instantiations.
func oracleFire(d *db.Database, r ast.Rule, w db.RoundWindow, emit func(ast.GroundAtom)) int {
	cs := make([]oracle.Constraint, len(r.Body))
	for i, a := range r.Body {
		cs[i] = oracle.Constraint{Atom: a, Window: w}
	}
	n := 0
	b := ast.Binding{}
	oracle.MatchSeq(d, cs, b, func() bool {
		for _, na := range r.NegBody {
			if d.Has(na.MustGround(b)) {
				return true
			}
		}
		n++
		emit(r.Head.MustGround(b))
		return true
	})
	return n
}

// oracleEval computes P(input) by naive rounds — the Section III computation
// the engine has no switch for — one fixpoint per stratum (under negation) or
// per SCC group, and reports the naive firing count: every round
// instantiates every rule of the unit against the facts present when the
// round began, until a round adds nothing.
func oracleEval(t testing.TB, p *ast.Program, input *db.Database) (*db.Database, int) {
	t.Helper()
	if !p.HasNegation() {
		groups, err := depgraph.Build(p).RuleGroups()
		if err != nil {
			t.Fatal(err)
		}
		return oracleRounds(p, input, groups)
	}
	strata, err := depgraph.Strata(p)
	if err != nil {
		t.Fatal(err)
	}
	var groups [][]int
	for _, stratum := range strata {
		var group []int
		for ri, r := range p.Rules {
			if slices.Contains(stratum, r.Head.Pred) {
				group = append(group, ri)
			}
		}
		groups = append(groups, group)
	}
	return oracleRounds(p, input, groups)
}

// oracleRounds is oracleEval under an explicit schedule; one group holding
// every rule of a negation-free program is the flat single fixpoint.
func oracleRounds(p *ast.Program, input *db.Database, groups [][]int) (*db.Database, int) {
	d := input.Clone()
	firings := 0
	for _, group := range groups {
		for grew := true; grew; {
			visible := db.RoundWindow{Max: d.Round()}
			d.BeginRound()
			before := d.Len()
			for _, ri := range group {
				firings += oracleFire(d, p.Rules[ri], visible, func(h ast.GroundAtom) { d.Add(h) })
			}
			grew = d.Len() > before
		}
	}
	return d, firings
}

// oracleInstantiations counts the body instantiations of p's rules over d.
// Over d = P(input) it is exactly what semi-naive evaluation must fire: each
// instantiation once, at the round its newest fact became visible.
func oracleInstantiations(p *ast.Program, d *db.Database) int {
	n := 0
	for _, r := range p.Rules {
		n += oracleFire(d, r, db.AllRounds, func(ast.GroundAtom) {})
	}
	return n
}

// oracleNonRecursive is Pⁿ(d) of Section IX.
func oracleNonRecursive(p *ast.Program, d *db.Database) *db.Database {
	out := db.New()
	for _, r := range p.Rules {
		oracleFire(d, r, db.AllRounds, func(h ast.GroundAtom) { out.Add(h) })
	}
	return out
}

// checkAgainstOracle evaluates p on input and fails unless the
// output equals the oracle's and the work counters are the ones semi-naive
// evaluation defines: Added is the number of facts beyond the input, and
// Firings the number of distinct instantiations — never more than the
// oracle's naive count. It returns the engine's output.
func checkAgainstOracle(t testing.TB, p *ast.Program, input *db.Database) *db.Database {
	t.Helper()
	got, st, err := Eval(p, input)
	if err != nil {
		t.Fatal(err)
	}
	want, naiveFirings := oracleEval(t, p, input)
	if !got.Equal(want) {
		t.Fatalf("output differs from oracle\ngot:\n%s\nwant:\n%s\nprogram:\n%s", got, want, p)
	}
	if st.Added != want.Len()-input.Len() {
		t.Fatalf("Added = %d, oracle derived %d\nprogram:\n%s", st.Added, want.Len()-input.Len(), p)
	}
	if wantFirings := oracleInstantiations(p, want); st.Firings != wantFirings || st.Firings > naiveFirings {
		t.Fatalf("Firings = %d, oracle %d distinct instantiations, %d naive\nprogram:\n%s", st.Firings, wantFirings, naiveFirings, p)
	}
	return got
}

// checkGoalPrefix fails unless partial — the database a goal-directed run
// halted on — is the full run's insertion sequence cut right after the goal:
// every relation of partial is a prefix of the same relation of full, and
// the goal is the last tuple partial inserted into its relation. reached
// must say whether the full run derives the goal at all.
func checkGoalPrefix(t testing.TB, partial, full *db.Database, goal ast.GroundAtom, reached bool) {
	t.Helper()
	if reached != full.Has(goal) {
		t.Fatalf("goal %v: reached=%v but full fixpoint has it=%v", goal, reached, full.Has(goal))
	}
	if !reached {
		if partial.String() != full.String() {
			t.Fatalf("goal %v unreachable: run differs from the full fixpoint\ngot:\n%s\nwant:\n%s", goal, partial, full)
		}
		return
	}
	for _, pred := range partial.Preds() {
		pr, fr := partial.Relation(pred), full.Relation(pred)
		if fr == nil || pr.Len() > fr.Len() {
			t.Fatalf("goal %v: relation %s has %d tuples, more than the full run", goal, pred, pr.Len())
		}
		for i := 0; i < pr.Len(); i++ {
			if !slices.Equal(pr.Tuple(i), fr.Tuple(i)) {
				t.Fatalf("goal %v: relation %s is not a prefix of the full run at tuple %d\npartial:\n%s\nfull:\n%s", goal, pred, i, partial, full)
			}
		}
	}
	rel := partial.Relation(goal.Pred)
	if rel == nil || rel.Len() == 0 || !slices.Equal(rel.Tuple(rel.Len()-1), goal.Args) {
		t.Fatalf("goal %v is not the last fact the cut run inserted into %s:\n%s", goal, goal.Pred, partial)
	}
}
