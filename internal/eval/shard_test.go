package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/workload"
)

// The sharded executor's acceptance property: for every program the output
// database is byte-identical (same facts in the same insertion order, which
// db.String exposes) across shard counts — including goal early-stop partial
// databases and budget-exhausted runs.

var shardGrid = []int{1, 2, 4, 8}

// withProcs sets GOMAXPROCS for the rest of the test. Shard tasks run on
// min(Shards, GOMAXPROCS) goroutines — inline at 1 — so the grids pin the
// value to cover both schedules whatever the host's core count.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// bothSchedules runs body with shard tasks inline and with them concurrent.
func bothSchedules(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			body(t)
		})
	}
}

// MustEval2 evaluates under explicit options and returns the dump, failing
// the test on error.
func MustEval2(t *testing.T, p *ast.Program, input *db.Database, o Options) string {
	t.Helper()
	out, _, err := Eval(p, input, o)
	if err != nil {
		t.Fatalf("%+v: %v", o, err)
	}
	return out.String()
}

func TestShardedByteIdentity(t *testing.T) { bothSchedules(t, testShardedByteIdentity) }

func testShardedByteIdentity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		want, _ := oracleEval(t, p, input)
		var wantDump string
		for _, s := range shardGrid {
			prep, err := Prepare(p, Options{Shards: s})
			if err != nil {
				t.Fatalf("seed %d: prepare shards=%d: %v", seed, s, err)
			}
			out, _, err := prep.Eval(input)
			if err != nil {
				t.Fatalf("seed %d shards=%d: %v", seed, s, err)
			}
			dump := out.String()
			if s == 1 {
				if !out.Equal(want) {
					t.Fatalf("seed %d: unsharded output differs from the oracle\nprogram:\n%s", seed, p)
				}
				wantDump = dump
			} else if dump != wantDump {
				t.Fatalf("seed %d shards=%d: database differs from shards=1\ngot:\n%s\nwant:\n%s\nprogram:\n%s",
					seed, s, dump, wantDump, p)
			}
		}
	}
}

func TestShardedTransitiveClosureIdentity(t *testing.T) {
	bothSchedules(t, testShardedTransitiveClosureIdentity)
}

func testShardedTransitiveClosureIdentity(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.RandomDigraph("A", 60, 150, 3)
	want := MustEval(p, input).String()
	for _, s := range shardGrid {
		prep, err := Prepare(p, Options{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := prep.Eval(input)
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		if out.String() != want {
			t.Fatalf("shards=%d: output differs from unsharded", s)
		}
		if s > 1 {
			if stats.ShardRounds == 0 {
				t.Fatalf("shards=%d: sharded executor did not engage", s)
			}
			if stats.ShardRounds%s != 0 {
				t.Fatalf("shards=%d: ShardRounds=%d not a multiple of the shard count", s, stats.ShardRounds)
			}
		}
	}
}

// TestShardedGoalPrefixCut extends the prefix-cut determinism property to
// the sharded merge: a goal-directed run halts on a byte-identical partial
// database for every shard count. Goals are drawn from
// mid-evaluation derivations so the cut fires inside rounds.
func TestShardedGoalPrefixCut(t *testing.T) { bothSchedules(t, testShardedGoalPrefixCut) }

func testShardedGoalPrefixCut(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		input := workload.RandomDB(rng, p, 4, 4)
		full, _, err := Eval(p, input, Options{})
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

		for gi := range goals {
			goal := goals[gi]
			var wantDump string
			var wantReached bool
			first := true
			for _, s := range shardGrid {
				prep, err := Prepare(p, Options{Shards: s})
				if err != nil {
					t.Fatalf("seed %d: prepare: %v", seed, err)
				}
				out, reached, _, err := prep.Run(nil, input, &goal, 0, nil)
				if err != nil {
					t.Fatalf("seed %d goal %v shards=%d: %v", seed, goal, s, err)
				}
				dump := out.String()
				if first {
					wantDump, wantReached, first = dump, reached, false
					continue
				}
				if reached != wantReached {
					t.Fatalf("seed %d goal %v: shards=%d reached=%v, want %v",
						seed, goal, s, reached, wantReached)
				}
				if dump != wantDump {
					t.Fatalf("seed %d goal %v: shards=%d partial database differs\ngot:\n%s\nwant:\n%s\nprogram:\n%s",
						seed, goal, s, dump, wantDump, p)
				}
			}
		}
	}
}

// TestShardedBudgetConsistency: budget exhaustion is decided identically at
// every grid point — every configuration either completes or fails with
// ErrBudget, in agreement with the sequential baseline. (The partial
// database of a budget-failed run is not an API observable: run returns a
// nil database alongside the error.)
func TestShardedBudgetConsistency(t *testing.T) { bothSchedules(t, testShardedBudgetConsistency) }

func testShardedBudgetConsistency(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.Chain("A", 30)
	for _, budget := range []int{1, 25, 1000} {
		_, _, err := evalBudget(t, p, input, Options{}, budget)
		wantBudget := errors.Is(err, ErrBudget)
		if err != nil && !wantBudget {
			t.Fatalf("budget=%d: unexpected baseline error %v", budget, err)
		}
		for _, s := range shardGrid {
			_, _, err := evalBudget(t, p, input, Options{Shards: s}, budget)
			if got := errors.Is(err, ErrBudget); got != wantBudget {
				t.Fatalf("budget=%d shards=%d: budget error %v, baseline %v (err=%v)",
					budget, s, got, wantBudget, err)
			}
		}
	}
}

// TestShardedIncrementalOracle: the insert loop routed through the shared
// round executor agrees with full re-evaluation at every grid point,
// and produces byte-identical databases across the grid.
func TestShardedIncrementalOracle(t *testing.T) { bothSchedules(t, testShardedIncrementalOracle) }

func testShardedIncrementalOracle(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 12)
	newFacts := []ast.GroundAtom{ga("A", 12, 0), ga("A", 5, 20), ga("A", 20, 21)}
	full := base.Clone()
	for _, f := range newFacts {
		full.Add(f)
	}
	want := MustEval(p, full)
	var wantDump string
	first := true
	for _, s := range shardGrid {
		inc, stats := insertInto(t, p, base, newFacts, Options{Shards: s})
		if !inc.Equal(want) {
			t.Fatalf("shards=%d: incremental %d facts, full re-eval %d facts",
				s, inc.Len(), want.Len())
		}
		if s > 1 && stats.ShardRounds == 0 {
			t.Fatalf("shards=%d: sharded insert loop did not engage", s)
		}
		dump := inc.String()
		if first {
			wantDump, first = dump, false
		} else if dump != wantDump {
			t.Fatalf("shards=%d: incremental database differs across the grid", s)
		}
	}
}

func TestShardedIncrementalRandomOracle(t *testing.T) {
	bothSchedules(t, testShardedIncrementalRandomOracle)
}

func testShardedIncrementalRandomOracle(t *testing.T) {
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
		want, _, err := Eval(p, full, Options{})
		if err != nil {
			continue
		}
		for _, s := range shardGrid {
			inc, _ := insertInto(t, p, base, extra.Facts(), Options{Shards: s})
			if !inc.Equal(want) {
				t.Fatalf("seed %d shards=%d: incremental disagrees with full re-eval\nprogram:\n%s",
					seed, s, p)
			}
		}
	}
}

// TestShardedStatsAccounting pins the semantics of the per-shard counters.
func TestShardedStatsAccounting(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.RandomDigraph("A", 40, 100, 5)
	_, seq, err := Eval(p, input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Eval(p, input, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardRounds == 0 || st.ShardRounds%4 != 0 {
		t.Fatalf("ShardRounds = %d, want a positive multiple of 4", st.ShardRounds)
	}
	// Firings is the count of successful full joins, invariant under
	// sharding: the shard slices partition each variant's outer enumeration.
	if st.Firings != seq.Firings {
		t.Fatalf("sharded Firings = %d, sequential = %d", st.Firings, seq.Firings)
	}
	if st.Added != seq.Added {
		t.Fatalf("sharded Added = %d, sequential = %d", st.Added, seq.Added)
	}
	if st.DeltaExchanged < 0 || st.DeltaExchanged > st.Added {
		t.Fatalf("DeltaExchanged = %d out of range (Added = %d)", st.DeltaExchanged, st.Added)
	}
	var acc Stats
	acc.Add(st)
	acc.Add(st)
	if acc.ShardRounds != 2*st.ShardRounds || acc.DeltaExchanged != 2*st.DeltaExchanged || acc.ShardImbalance != 2*st.ShardImbalance {
		t.Fatal("Add must accumulate all shard counters")
	}
}

// TestShardedNormalization: unusable shard counts fall back to the
// unsharded executor or the cap rather than failing.
func TestShardedNormalization(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.Chain("A", 8)
	for _, o := range []Options{
		{Shards: 0},
		{Shards: -3},
		{Shards: 100000},
	} {
		want := MustEval2(t, p, input, Options{Shards: 1})
		out, _, err := Eval(p, input, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if out.String() != want {
			t.Fatalf("%+v: output differs", o)
		}
	}
}
