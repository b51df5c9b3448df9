package eval

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/workload"
)

// TestGoalPrefixCutDeterministic is the acceptance property of the
// emit-path goal cut: goal-directed evaluation halts on exactly the full
// run's insertion sequence cut right after the goal (same facts in the same
// insertion order), so the partial database is a function of the program,
// the input and the goal alone. The goals are drawn from mid-evaluation
// derivations, so the cut genuinely fires inside rounds, not only at
// fixpoints. TestShardedGoalPrefixCut repeats it at GOMAXPROCS 1 and 8.
func TestGoalPrefixCutDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
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
		// Goal candidates: a few derived facts plus one unreachable goal
		// (the full fixpoint must also be order-identical).
		var goals []ast.GroundAtom
		for _, f := range full.Facts() {
			if !input.Has(f) {
				goals = append(goals, f)
			}
		}
		rng.Shuffle(len(goals), func(i, j int) { goals[i], goals[j] = goals[j], goals[i] })
		if len(goals) > 4 {
			goals = goals[:4]
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
