package eval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

// Delta rounds run every variant led by its delta atom (roundEnv.
// deltaVariants). These tests pin what that must not change — each firing
// happens exactly once, at any body width — and the
// shape itself: operator 0 is the delta, a scan, the only position with a
// lower bound, and an order is planned and lowered only once a delta has
// something in it.

// checkFiringsExactlyOnce evaluates p on input and fails unless the run
// fires each instantiation valid in its output exactly once. A wrong old/new
// window fires some instantiation twice (or never) without necessarily
// changing the output, so only the count catches it.
func checkFiringsExactlyOnce(t *testing.T, name string, p *ast.Program, input *db.Database) {
	t.Helper()
	pr, err := Prepare(p)
	if err != nil {
		return // unstratifiable draw
	}
	out, st, err := pr.Eval(input)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := pr.FiringCount(out); st.Firings != want {
		t.Fatalf("%s: %d firings, %d instantiations are valid in the output\nprogram:\n%s", name, st.Firings, want, p)
	}
}

func TestFiringsExactlyOnce(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		d := workload.RandomDB(rng, p, 4, 4)
		checkFiringsExactlyOnce(t, fmt.Sprintf("seed %d", seed), p, d)
		// The same draw under a stratum that negates it and recurses on its
		// own head: delta variants with negated literals.
		strat := p.Clone()
		strat.Rules = append(strat.Rules, parser.MustParseProgram(`
			U(x, y) :- A(x, y), !P(x, y).
			U(x, z) :- U(x, y), B(y, z), U(y, w), !P(z, x).
		`).Rules...)
		checkFiringsExactlyOnce(t, fmt.Sprintf("seed %d stratified", seed), strat, d)
	}
	// Self-joins: a combination of new facts has several delta atoms, and
	// exactly one variant — the one led by the first of them in the source
	// body — may fire it.
	checkFiringsExactlyOnce(t, "triple self-join", parser.MustParseProgram(`
		G(x, y) :- A(x, y).
		G(x, w) :- G(x, y), G(y, z), G(z, w).
	`), workload.RandomDigraph("A", 12, 30, 3))
	andersen := parser.MustParseProgram(`
		PointsTo(p, a) :- AddrOf(p, a).
		PointsTo(p, a) :- Assign(p, q), PointsTo(q, a).
		PointsTo(p, a) :- Load(p, q), PointsTo(q, r), PointsTo(r, a).
		PointsTo(r, a) :- Store(p, q), PointsTo(p, r), PointsTo(q, a).
	`)
	in := db.New()
	for _, pred := range []string{"AddrOf", "Assign", "Load", "Store"} {
		in.AddAll(workload.RandomDigraph(pred, 10, 14, int64(len(pred))))
	}
	checkFiringsExactlyOnce(t, "andersen", andersen, in)
}

// wideRecursiveProgram is non-linear transitive closure with width copies of
// a node filter between its two recursive atoms: a body of width + 2 atoms
// whose delta atoms sit at both ends.
func wideRecursiveProgram(width int) *ast.Program {
	body := []ast.Atom{ast.NewAtom("G", ast.Var("x"), ast.Var("y"))}
	for i := 0; i < width; i++ {
		body = append(body, ast.NewAtom("N", ast.Var("y")))
	}
	body = append(body, ast.NewAtom("G", ast.Var("y"), ast.Var("z")))
	return ast.NewProgram(
		ast.Rule{Head: ast.NewAtom("G", ast.Var("x"), ast.Var("z")), Body: []ast.Atom{ast.NewAtom("A", ast.Var("x"), ast.Var("z"))}},
		ast.Rule{Head: ast.NewAtom("G", ast.Var("x"), ast.Var("z")), Body: body},
	)
}

// TestWideBodyDeltaRound: nothing caps the body width a delta variant's
// windows cover. A recursive rule of 72 atoms, delta atoms first and last,
// agrees with the naive oracle in output and firing count, and an insert
// loop over it agrees with re-evaluation.
func TestWideBodyDeltaRound(t *testing.T) {
	p := wideRecursiveProgram(70)
	in := workload.Chain("A", 7)
	for n := int64(0); n < 7; n++ {
		in.Add(ga("N", n))
	}
	checkAgainstOracle(t, p, in)
	extra := []ast.GroundAtom{ga("A", 7, 8), ga("A", 8, 1), ga("N", 7), ga("N", 8)}
	got, _ := insertInto(t, p, in, extra)
	grown := in.Clone()
	for _, g := range extra {
		grown.Add(g)
	}
	if want, _ := oracleEval(t, p, grown); !got.Equal(want) {
		t.Fatalf("insert loop over the wide rule differs from the oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// ruleOf is the index in u of the rule v applies: the rule whose memo
// lowered v's plan, or -1.
func ruleOf(u *unit, v variant) int {
	for i, m := range u.rules {
		for _, lr := range m.lowered {
			if lr.plan == v.plan {
				return i
			}
		}
	}
	return -1
}

// TestDeltaVariantsLeadWithDelta (white box): in every variant of a delta
// round and of an insert round operator 0 is the delta atom and a scan —
// constants of the lead select, they do not key — and it is the only
// position whose window has a lower bound; the atoms before the lead in the
// source body read strictly older rounds, the others everything visible.
func TestDeltaVariantsLeadWithDelta(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z), G(z, 3).
		G(x, w) :- G(x, y), G(y, z), G(z, w).
	`)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	u := pr.units[0]
	d := workload.Chain("A", 5)
	d.BeginRound() // round 1: the delta both loops will see
	d.Add(ga("A", 5, 6))
	for i := int64(0); i < 4; i++ {
		d.Add(ga("G", i, i+1))
	}
	d.BeginRound()
	var stats Stats
	for _, c := range []struct {
		name string
		all  bool
		want int // variants: one per (rule, atom) with a non-empty delta
	}{
		{"fixpoint round", false, 2 + 3},
		{"insert round", true, 1 + 3 + 3},
	} {
		env := &roundEnv{ctx: context.Background(), d: d, stats: &stats}
		variants := env.deltaVariants(u, c.all, 1, 1, nil)
		if len(variants) != c.want {
			t.Fatalf("%s: %d variants, want %d", c.name, len(variants), c.want)
		}
		for _, v := range variants {
			idx := ruleOf(u, v)
			if idx < 0 {
				t.Fatalf("%s: variant plan %p is no rule's lowering", c.name, v.plan)
			}
			body, led := u.rules[idx].rule.Body, v.win.led
			if len(led) != len(body) || len(v.plan.ops) != len(body) {
				t.Fatalf("%s: rule %d: order %v over a body of %d atoms", c.name, idx, led, len(body))
			}
			if op := v.plan.ops[0]; op.pred != body[led[0]].Pred || op.kind != opScan {
				t.Errorf("%s: rule %d led by atom %d: operator 0 is kind %d over %s", c.name, idx, led[0], op.kind, op.pred)
			}
			if !c.all && !u.dynamic[body[led[0]].Pred] {
				t.Errorf("%s: rule %d is led by extensional atom %d", c.name, idx, led[0])
			}
			for pos := range led {
				want := db.RoundWindow{Min: 0, Max: 1}
				if pos == 0 {
					want.Min = 1
				} else if led[pos] < led[0] {
					want.Max = 0
				}
				if got := v.win.window(pos); got != want {
					t.Errorf("%s: rule %d led by atom %d: position %d (atom %d) reads %+v, want %+v", c.name, idx, led[0], pos, led[pos], got, want)
				}
			}
		}
		// The round's choices are the fixpoint's: asking again plans nothing.
		again := env.deltaVariants(u, c.all, 1, 1, nil)
		for i, v := range again {
			if v.plan != variants[i].plan {
				t.Errorf("%s: variant %d was planned twice in one fixpoint", c.name, i)
			}
		}
	}
}

// memoEntries counts the lowered entries of pr's rules.
func memoEntries(pr *Prepared) []int {
	out := make([]int, len(pr.memos))
	for i, m := range pr.memos {
		m.mu.Lock()
		out[i] = len(m.lowered)
		m.mu.Unlock()
	}
	return out
}

// TestDeltaRoundLowersLazily: led orders are planned and lowered when a delta
// first holds a tuple, not at Prepare and not with the first round. A rule
// over an empty relation is not even planned for the first round, and a unit
// with no rule that can fire begins no round; a fixpoint that goes on adds at
// most one entry per atom over the unit's own heads, and none for the
// extensional atoms.
func TestDeltaRoundLowersLazily(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z), B(z, z).
		H(x) :- G(x, x).
	`)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := memoEntries(pr); n[0]+n[1]+n[2] != 0 {
		t.Fatalf("Prepare lowered %v entries", n)
	}
	// B alone: every rule reads the absent A or G, so no rule can fire, no
	// unit begins a round and nothing is lowered.
	_, st, err := pr.Eval(db.FromFacts([]ast.GroundAtom{ga("B", 1, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if n := memoEntries(pr); st.Rounds != 0 || n[0]+n[1]+n[2] != 0 {
		t.Fatalf("a run where no rule can fire took %d rounds and left %v entries, want none", st.Rounds, n)
	}
	in := workload.Chain("A", 6)
	for i := int64(0); i < 6; i++ {
		in.Add(ga("B", i, i))
	}
	if _, st, err = pr.Eval(in); err != nil || st.Rounds < 5 {
		t.Fatalf("chain run: %d rounds, %v", st.Rounds, err)
	}
	// Rule 0 has no delta atom; rule 1 one (G), whose led order may or may not
	// be the first round's; rule 2 sits in a streamable unit.
	if n := memoEntries(pr); n[0] != 1 || n[1] > 3 || n[2] != 1 {
		t.Fatalf("delta rounds left %v entries", n)
	}
	for _, lr := range pr.memos[1].lowered {
		if lr.perm[0] == 2 {
			t.Fatalf("a plan led by the extensional B(z, z) was lowered: %v", lr.perm)
		}
	}
}

// TestFirstRoundSkipsRulesThatCannotFire: a rule with a positive atom over an
// empty relation gets no first-round variant. When that atom is over one of
// the unit's own heads, a later delta leads the rule all the same, so the
// model is the naive oracle's; a rule over a relation nothing ever fills is
// never lowered, in the first round or led by a delta.
func TestFirstRoundSkipsRulesThatCannotFire(t *testing.T) {
	p := parser.MustParseProgram(`
		T(x, y) :- E(x, y).
		T(x, z) :- T(x, y), E(y, z).
		T(x, z) :- T(x, y), F(y, z).
		T(x, y) :- F(x, y), E(y, y).
	`)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.Chain("E", 5)
	got, st, err := pr.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleEval(t, p, in)
	if !got.Equal(want) {
		t.Fatalf("output differs from oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
	if wantFirings := oracleInstantiations(p, want); st.Firings != wantFirings {
		t.Fatalf("Firings = %d, oracle %d distinct instantiations", st.Firings, wantFirings)
	}
	n := memoEntries(pr)
	if n[0] != 1 || n[1] == 0 || n[2] != 0 || n[3] != 0 {
		t.Fatalf("memo entries %v: want the base rule once, the recursive rule led by its delta, and no lowering of a rule over F", n)
	}
	for _, lr := range pr.memos[1].lowered {
		if lr.perm[0] != 0 {
			t.Fatalf("the recursive rule was lowered in an order not led by T: %v", lr.perm)
		}
	}
}
