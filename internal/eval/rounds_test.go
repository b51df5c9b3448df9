package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/workload"
)

// The round executor's determinism contract: the output database — goal
// early-stop partial databases and budget-exhausted runs included — is a
// function of the program, the input and the call's arguments, byte for byte
// (same facts in the same insertion order, which db.String exposes), whatever
// GOMAXPROCS is: internal/eval starts no goroutine (TestStructure/ctx-arg). The
// TestSharded* names are the IDs of the grid that pinned the same properties
// across the deleted sharded executor's shard counts; each test now pins its
// property on the one executor, under both schedules of the old grid.

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// bothSchedules runs body at GOMAXPROCS 1 and 8.
func bothSchedules(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			body(t)
		})
	}
}

// TestShardedByteIdentity: on random programs the output equals the naive
// oracle's, and a second run of the same plan repeats it byte for byte.
func TestShardedByteIdentity(t *testing.T) { bothSchedules(t, testByteIdentity) }

func testByteIdentity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		want, _ := oracleEval(t, p, input)
		prep, err := Prepare(p)
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		var first string
		for run := 0; run < 2; run++ {
			out, _, err := prep.Eval(input)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !out.Equal(want) {
				t.Fatalf("seed %d: output differs from the oracle\nprogram:\n%s", seed, p)
			}
			if run == 0 {
				first = out.String()
			} else if dump := out.String(); dump != first {
				t.Fatalf("seed %d: rerun differs\ngot:\n%s\nwant:\n%s\nprogram:\n%s", seed, dump, first, p)
			}
		}
	}
}

// TestShardedTransitiveClosureIdentity: a deep fixpoint — every round a delta
// round — commits the same database as the one-shot entry point.
func TestShardedTransitiveClosureIdentity(t *testing.T) {
	bothSchedules(t, testTransitiveClosureIdentity)
}

func testTransitiveClosureIdentity(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.RandomDigraph("A", 60, 150, 3)
	want := MustEval(p, input).String()
	prep, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := prep.Eval(input)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatal("prepared output differs from the one-shot run")
	}
	if stats.Rounds < 3 {
		t.Fatalf("Rounds = %d: the fixpoint ran no delta round", stats.Rounds)
	}
}

// TestShardedGoalPrefixCut: a goal-directed run halts on the full run's
// insertion sequence cut right after the goal (checkGoalPrefix).
func TestShardedGoalPrefixCut(t *testing.T) { bothSchedules(t, testGoalPrefixCut) }

func testGoalPrefixCut(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		full, _, err := Eval(p, input)
		if err != nil {
			continue
		}
		var goals []ast.GroundAtom
		for _, f := range full.Facts() {
			if !input.Has(f) {
				goals = append(goals, f)
			}
		}
		rng.Shuffle(len(goals), func(i, j int) { goals[i], goals[j] = goals[j], goals[i] })
		if len(goals) > 3 {
			goals = goals[:3]
		}
		goals = append(goals, ast.NewGroundAtom("P", ast.Int(9000), ast.Int(9000)))
		prep, err := Prepare(p)
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		for gi := range goals {
			out, reached, _, err := prep.Run(nil, input, &goals[gi], 0)
			if err != nil {
				t.Fatalf("seed %d goal %v: %v", seed, goals[gi], err)
			}
			checkGoalPrefix(t, out, full, goals[gi], reached)
		}
	}
}

// TestShardedBudgetConsistency: a budget is exhausted exactly when the
// fixpoint derives more facts than it allows, and the error names the same
// derived count — the first fact past the budget — on every run.
func TestShardedBudgetConsistency(t *testing.T) { bothSchedules(t, testBudgetConsistency) }

func testBudgetConsistency(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.Chain("A", 30)
	derived := MustEval(p, input).Len() - input.Len()
	for _, budget := range []int{1, 25, 1000} {
		var first string
		for run := 0; run < 2; run++ {
			_, st, err := evalBudget(t, p, input, budget)
			if got, want := errors.Is(err, ErrBudget), derived > budget; got != want {
				t.Fatalf("budget=%d: budget error %v, want %v (err=%v)", budget, got, want, err)
			}
			if err == nil {
				continue
			}
			if st.Added != budget+1 {
				t.Fatalf("budget=%d: cut after %d facts, want %d", budget, st.Added, budget+1)
			}
			if run == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("budget=%d: %q, first run %q", budget, err, first)
			}
		}
	}
}

// TestShardedIncrementalOracle: the insert loop routed through the round
// executor agrees with full re-evaluation, and repeats its database byte
// for byte.
func TestShardedIncrementalOracle(t *testing.T) { bothSchedules(t, testIncrementalOracle) }

func testIncrementalOracle(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 12)
	newFacts := []ast.GroundAtom{ga("A", 12, 0), ga("A", 5, 20), ga("A", 20, 21)}
	full := base.Clone()
	for _, f := range newFacts {
		full.Add(f)
	}
	want := MustEval(p, full)
	var first string
	for run := 0; run < 2; run++ {
		inc, _ := insertInto(t, p, base, newFacts)
		if !inc.Equal(want) {
			t.Fatalf("incremental %d facts, full re-eval %d facts", inc.Len(), want.Len())
		}
		if run == 0 {
			first = inc.String()
		} else if inc.String() != first {
			t.Fatal("incremental database differs between runs")
		}
	}
}

func TestShardedIncrementalRandomOracle(t *testing.T) {
	bothSchedules(t, testIncrementalRandomOracle)
}

func testIncrementalRandomOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil || p.HasNegation() {
			continue
		}
		base := workload.RandomDB(rng, p, 4, 3)
		extra := workload.RandomDB(rng, p, 4, 2)
		full := base.Clone()
		full.AddAll(extra)
		want, _, err := Eval(p, full)
		if err != nil {
			continue
		}
		if inc, _ := insertInto(t, p, base, extra.Facts()); !inc.Equal(want) {
			t.Fatalf("seed %d: incremental disagrees with full re-eval\nprogram:\n%s", seed, p)
		}
	}
}
