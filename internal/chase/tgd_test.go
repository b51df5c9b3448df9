package chase

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// The tgd steps as they ran before they moved onto the join kernel: a
// nested-loops match of the LHS through the oracle matcher, the RHS checked
// with oracle.Satisfiable, one cloned binding per pending trigger. It is the
// reference the lowered plans are compared against — same violations in the
// same order, hence the same null names.

type violation struct {
	tgd   int
	theta []ast.Const
}

func refViolations(d *db.Database, tgds []ast.TGD) []violation {
	var out []violation
	for i, t := range tgds {
		b := ast.Binding{}
		oracle.MatchConjunction(d, t.Lhs, b, func() bool {
			if !oracle.Satisfiable(d, t.Rhs, b) {
				v := violation{tgd: i}
				for _, x := range t.UniversalVars() {
					v.theta = append(v.theta, b[x])
				}
				out = append(out, v)
			}
			return true
		})
	}
	return out
}

func refApplyRound(tgds []ast.TGD, d *db.Database, nullGen *ast.ConstGen) int {
	added := 0
	for _, t := range tgds {
		var pending []ast.Binding
		b := ast.Binding{}
		oracle.MatchConjunction(d, t.Lhs, b, func() bool {
			if !oracle.Satisfiable(d, t.Rhs, b) {
				pending = append(pending, b.Clone())
			}
			return true
		})
		for _, theta := range pending {
			if oracle.Satisfiable(d, t.Rhs, theta) {
				continue
			}
			for _, z := range t.ExistentialVars() {
				theta[z] = nullGen.Fresh()
			}
			for _, a := range t.Rhs {
				if d.Add(a.MustGround(theta)) {
					added++
				}
			}
		}
	}
	return added
}

// randomTGD draws a tgd over binary A, B (the EDB) and C, D (only ever
// produced): 1–3 LHS atoms with repeated variables and the odd constant, 1–2
// RHS atoms over LHS variables and up to two existential ones — which two RHS
// atoms may share — and constants. With broken set, an RHS atom may name a
// predicate no fact has or give A three columns: such a tgd can be checked
// but not fired.
func randomTGD(rng *rand.Rand, broken bool) ast.TGD {
	univ := []string{"x", "y", "z", "w"}
	term := func(vars []string) ast.Term {
		if rng.Intn(7) == 0 {
			return ast.IntTerm(int64(rng.Intn(4)))
		}
		return ast.Var(vars[rng.Intn(len(vars))])
	}
	var t ast.TGD
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pred := []string{"A", "B", "A", "C"}[rng.Intn(4)]
		t.Lhs = append(t.Lhs, ast.NewAtom(pred, term(univ), term(univ)))
	}
	rhsVars := append(ast.VarsOfAtoms(t.Lhs), []string{"e1", "e2"}[:rng.Intn(3)]...)
	if len(rhsVars) == 0 {
		rhsVars = []string{"e1"}
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		pred := []string{"A", "B", "C", "D"}[rng.Intn(4)]
		a := ast.NewAtom(pred, term(rhsVars), term(rhsVars))
		if broken && rng.Intn(4) == 0 {
			if rng.Intn(2) == 0 {
				a.Pred = "Missing"
			} else {
				a = ast.NewAtom("A", term(rhsVars), term(rhsVars), term(rhsVars))
			}
		}
		t.Rhs = append(t.Rhs, a)
	}
	return t
}

// randomTGDInput is a random digraph over A and B with a few facts that
// already carry labelled nulls.
func randomTGDInput(rng *rand.Rand) *db.Database {
	d := workload.RandomDigraph("A", 4+rng.Intn(4), 6+rng.Intn(10), rng.Int63())
	d.AddAll(workload.RandomDigraph("B", 4+rng.Intn(4), 3+rng.Intn(8), rng.Int63()))
	for n := rng.Intn(3); n > 0; n-- {
		d.Add(ast.NewGroundAtom([]string{"A", "B", "C"}[rng.Intn(3)], ast.Int(int64(rng.Intn(4))), ast.NullConst(rng.Intn(3))))
	}
	return d
}

func loweredViolations(t *testing.T, d *db.Database, tgds []ast.TGD) []violation {
	t.Helper()
	var out []violation
	var st eval.Stats
	done, err := LowerTGDs(tgds).EachViolation(context.Background(), d, &st, func(i int, theta []ast.Const) bool {
		out = append(out, violation{tgd: i, theta: slices.Clone(theta)})
		return true
	})
	if !done || err != nil {
		t.Fatalf("EachViolation = %v, %v", done, err)
	}
	return out
}

// TestTGDStepsMatchOracle: on random tgd sets and inputs the lowered plans
// report the reference's violations in the reference's order, Satisfies
// agrees, and three successive rounds leave byte-identical databases — null
// names included — having added the same number of facts each.
func TestTGDStepsMatchOracle(t *testing.T) {
	var st eval.Stats // tgd joins are counted like any other join
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomTGDInput(rng)

		checked := make([]ast.TGD, 1+rng.Intn(3))
		for i := range checked {
			checked[i] = randomTGD(rng, true)
		}
		want := refViolations(d, checked)
		got := loweredViolations(t, d, checked)
		if !slices.EqualFunc(got, want, func(a, b violation) bool { return a.tgd == b.tgd && slices.Equal(a.theta, b.theta) }) {
			t.Fatalf("seed %d: violations of %v over\n%s\nlowered %v\noracle  %v", seed, checked, d, got, want)
		}
		if sat := Satisfies(d, checked); sat != (len(want) == 0) {
			t.Fatalf("seed %d: Satisfies = %v with %d oracle violations of %v", seed, sat, len(want), checked)
		}

		fired := make([]ast.TGD, 1+rng.Intn(3))
		for i := range fired {
			fired[i] = randomTGD(rng, false)
		}
		ref, low := d.Clone(), d.Clone()
		_, maxNull := d.MaxGeneratedIndexes()
		refGen, lowGen := ast.NewNullGen(maxNull+1), ast.NewNullGen(maxNull+1)
		ts := LowerTGDs(fired)
		for round := 0; round < 3; round++ {
			wantAdded := refApplyRound(fired, ref, refGen)
			gotAdded, err := ts.applyRound(context.Background(), low, lowGen, &st)
			if err != nil || gotAdded != wantAdded || low.String() != ref.String() {
				t.Fatalf("seed %d round %d: %v over\n%s\nlowered added %d (%v):\n%s\noracle added %d:\n%s",
					seed, round, fired, d, gotAdded, err, low, wantAdded, ref)
			}
		}
	}
	if st.Firings == 0 || st.BindingsPipelined == 0 {
		t.Fatalf("tgd rounds left no trace in the stats: %+v", st)
	}
}

// wideLHS is a tgd whose LHS is a cross product: n A-facts make n² triggers.
func wideLHS(n int) ([]ast.TGD, *db.Database) {
	tgd := ast.NewTGD(
		[]ast.Atom{ast.NewAtom("A", ast.Var("x"), ast.Var("y")), ast.NewAtom("A", ast.Var("u"), ast.Var("v"))},
		[]ast.Atom{ast.NewAtom("R", ast.Var("x"), ast.Var("v"), ast.Var("z"))})
	return []ast.TGD{tgd}, workload.Chain("A", n)
}

// TestTGDRoundHonorsContext: a tgd round over a ≥ 10⁵-trigger LHS under an
// already-expired context stops within one poll cadence, with an error
// wrapping eval.ErrCanceled; a cancellation landing mid-phase inside
// Checker.Apply stops at the poll that sees it, and the same Checker then
// answers a live call like a fresh one.
func TestTGDRoundHonorsContext(t *testing.T) {
	tgds, d := wideLHS(320) // 102,400 triggers
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	var st eval.Stats
	work := d.Clone()
	added, err := LowerTGDs(tgds).applyRound(expired, work, ast.NewNullGen(0), &st)
	if !errors.Is(err, eval.ErrCanceled) || !errors.Is(err, context.Canceled) || added != 0 || work.Len() != d.Len() {
		t.Fatalf("expired context: added %d (db %d → %d), err %v", added, d.Len(), work.Len(), err)
	}
	// Each trigger is one LHS row and one guard run that finds nothing.
	if st.Firings > eval.CtxCheckEvery {
		t.Fatalf("expired context: %d rows enumerated, cadence is %d", st.Firings, eval.CtxCheckEvery)
	}

	c, err := NewChecker(ast.NewProgram())
	if err != nil {
		t.Fatal(err)
	}
	polls := &tripCtx{Context: context.Background(), trip: math.MaxInt}
	full, err := c.Apply(polls, tgds, d, Budget{MaxAtoms: 1 << 20, MaxRounds: 8})
	if err != nil || !full.Complete {
		t.Fatalf("live chase: %+v, %v", full, err)
	}
	if polls.calls < 102400/eval.CtxCheckEvery {
		t.Fatalf("live chase polled %d times: the tgd phase does not poll", polls.calls)
	}
	mid := &tripCtx{Context: context.Background(), trip: polls.calls / 2}
	if _, err := c.Apply(mid, tgds, d, Budget{MaxAtoms: 1 << 20, MaxRounds: 8}); err == nil {
		t.Fatal("mid-phase cancellation went unnoticed")
	} else {
		wantCanceled(t, err, mid)
	}
	again, err := c.Apply(context.Background(), tgds, d, Budget{MaxAtoms: 1 << 20, MaxRounds: 8})
	if err != nil || !again.Complete || again.DB.String() != full.DB.String() {
		t.Fatalf("after a canceled chase the session answers differently: %v", err)
	}
}
