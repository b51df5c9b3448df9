package eval

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestQuickStreamingEqualsMaterializing is the oracle property of the
// operator pipeline: for random programs × goal/no-goal, the full
// fixpoint agrees with the generic-matcher oracle (facts, Firings, Added),
// and a goal-directed run halts on exactly the full run's insertion sequence
// cut right after the goal (same facts in the same order — the emit-path cut
// changes where evaluation stops, never what it did before stopping). Run
// under -race in CI alongside the other eval properties.
func TestQuickStreamingEqualsMaterializing(t *testing.T) {
	onePass := false
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		if _, _, err := Eval(p, input); err != nil {
			continue // unstratifiable
		}
		full := checkAgainstOracle(t, p, input)
		// Goal candidates: a derived fact (cut fires mid-evaluation) and
		// an unreachable atom (cut never fires).
		goals := []ast.GroundAtom{ast.NewGroundAtom("P", ast.Int(9000), ast.Int(9000))}
		if g, ok := pickDerivedGoal(input, full); ok {
			goals = append(goals, g)
		}
		prep, err := Prepare(p)
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		for gi := range goals {
			out, reached, st, err := prep.Run(context.Background(), input, &goals[gi], 0)
			if err != nil {
				t.Fatalf("seed %d goal=%v: %v", seed, goals[gi], err)
			}
			checkGoalPrefix(t, out, full, goals[gi], reached)
			if st.Added != out.Len()-input.Len() {
				t.Fatalf("seed %d goal=%v: Added=%d, database grew by %d",
					seed, goals[gi], st.Added, out.Len()-input.Len())
			}
			if st.StrataStreamed > 0 {
				onePass = true
			}
		}
	}
	if !onePass {
		t.Fatal("no random program ever had a one-pass stratum; the oracle is vacuous")
	}
}

// TestStreamingPlanSelection pins how units converge: a fully non-recursive
// program reaches every unit's fixpoint in one pass (no confirmation round:
// Rounds equals the unit count) and a recursive SCC needs delta rounds.
func TestStreamingPlanSelection(t *testing.T) {
	nonrec := workload.Layered(6)
	input := workload.Chain("E", 8)

	_, st, err := Eval(nonrec, input)
	if err != nil {
		t.Fatal(err)
	}
	if st.StrataMaterialized != 0 || st.StrataStreamed == 0 {
		t.Fatalf("non-recursive program: streamed=%d materialized=%d, want all one-pass", st.StrataStreamed, st.StrataMaterialized)
	}
	if st.Rounds != st.StrataStreamed {
		t.Fatalf("non-recursive program: %d rounds for %d one-pass strata", st.Rounds, st.StrataStreamed)
	}
	if st.BindingsPipelined == 0 {
		t.Fatal("non-recursive program: no bindings pipelined")
	}

	tc := workload.TransitiveClosure()
	_, st, err = Eval(tc, workload.Chain("A", 10))
	if err != nil {
		t.Fatal(err)
	}
	if st.StrataStreamed != 0 || st.StrataMaterialized == 0 {
		t.Fatalf("recursive program: streamed=%d materialized=%d, want all delta rounds", st.StrataStreamed, st.StrataMaterialized)
	}
}

// TestStreamingGoalEarlyStop checks the emit-path cut: a goal-directed
// streaming pass halts mid-pipeline (EarlyStopCuts > 0) and leaves the goal
// in the partial database.
func TestStreamingGoalEarlyStop(t *testing.T) {
	p := workload.Layered(6)
	input := workload.Chain("E", 8)
	prep, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	goal := ast.NewGroundAtom("P3", ast.Int(0), ast.Int(3))
	out, reached, st, err := prep.Run(context.Background(), input, &goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatal("goal not reached")
	}
	if !out.Has(goal) {
		t.Fatal("goal missing from partial database")
	}
	if st.EarlyStopCuts == 0 {
		t.Fatalf("goal-directed streaming run reported no early-stop cuts: %+v", st)
	}
}

// TestStreamingNegation checks the pipeline's stratified-negation path
// against the oracle: negated strata are themselves one-pass (their negated
// predicates live in lower strata), and the absence checks must agree.
func TestStreamingNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Big(x, y) :- E(x, y), !Small(x).
		Small(x) :- S(x).
		Same(x) :- E(x, x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("E", 1, 2), ga("E", 2, 2), ga("E", 3, 4), ga("S", 1), ga("S", 4),
	})
	checkAgainstOracle(t, p, in)
	_, st, err := Eval(p, in)
	if err != nil {
		t.Fatal(err)
	}
	if st.StrataStreamed == 0 {
		t.Fatalf("negated program had no one-pass stratum: %+v", st)
	}
}

// TestNegationStratumSplitsIntoSCCUnits pins the one schedule on a program
// with negation: Reach and Out share stratum 0, but they are two components,
// so Out — non-recursive, reading the recursive Reach — runs as a one-pass
// unit of its own after Reach's fixpoint instead of inside it, and so does
// Unreach above them. The output is the stratum-by-stratum oracle's.
func TestNegationStratumSplitsIntoSCCUnits(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Out(x, y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("Src", 1), ga("E", 1, 2), ga("E", 2, 3), ga("E", 3, 1), ga("E", 4, 5),
		ga("Node", 1), ga("Node", 2), ga("Node", 4), ga("Node", 5),
	})
	checkAgainstOracle(t, p, in)
	_, st, err := Eval(p, in)
	if err != nil {
		t.Fatal(err)
	}
	if st.StrataStreamed != 2 || st.StrataMaterialized != 1 {
		t.Fatalf("streamed=%d materialized=%d, want Out and Unreach one-pass, Reach alone in delta rounds", st.StrataStreamed, st.StrataMaterialized)
	}
}

// TestUnstratifiableErrorIsStable: a program with three independent
// negation-through-recursion cycles is rejected with the same error on every
// call, naming the first negative edge inside a component in first-seen
// order.
func TestUnstratifiableErrorIsStable(t *testing.T) {
	p := parser.MustParseProgram(`
		P1(x) :- E(x), !Q1(x).
		Q1(x) :- E(x), P1(x).
		P2(x) :- E(x), !Q2(x).
		Q2(x) :- E(x), P2(x).
		P3(x) :- E(x), !Q3(x).
		Q3(x) :- E(x), P3(x).
	`)
	const want = "depgraph: program is not stratifiable: negation through recursion between Q1 and P1"
	for i := 0; i < 200; i++ {
		if _, _, err := Eval(p, db.New()); err == nil || err.Error() != want {
			t.Fatalf("call %d: Eval error %v, want %q", i, err, want)
		}
	}
}

// TestStreamingNonRecursivePass cross-checks the one-step Pⁿ(d) and
// IsClosed passes — package-level and prepared — against the oracle.
func TestStreamingNonRecursivePass(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		d := workload.RandomDB(rng, p, 4, 4)
		prep, err := Prepare(p)
		if err != nil {
			continue // unstratifiable
		}
		want := oracleNonRecursive(p, d)
		if got := prep.NonRecursive(d); !got.Equal(want) {
			t.Fatalf("seed %d: Prepared.NonRecursive differs:\n%s\nvs\n%s\nprogram:\n%s", seed, got, want, p)
		}
		if got := NonRecursive(p, d); !got.Equal(want) {
			t.Fatalf("seed %d: NonRecursive differs:\n%s\nvs\n%s\nprogram:\n%s", seed, got, want, p)
		}
		full, _, err := Eval(p, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range []*db.Database{d, full} {
			closed := probe.Contains(oracleNonRecursive(p, probe))
			if got := prep.IsClosed(probe); got != closed {
				t.Fatalf("seed %d: IsClosed=%v, oracle=%v\nprogram:\n%s", seed, got, closed, p)
			}
			if got := IsModel(p, probe); got != closed {
				t.Fatalf("seed %d: IsModel=%v, oracle=%v\nprogram:\n%s", seed, got, closed, p)
			}
		}
	}
}
