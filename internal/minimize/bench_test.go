package minimize

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
	"repro/internal/workload"
)

// benchRenames numbers the predicate spaces BenchmarkMinimizeProgram draws,
// process-wide, so no iteration of any b.N round meets a program the verdict
// store or the plan cache has seen.
var benchRenames atomic.Int64

// BenchmarkMinimizeProgram is Fig. 2 on one fixed bloated program — an
// eight-layer chain plus transitive closure, two redundant atoms per rule and
// four redundant rules — each iteration over a fresh renaming of its
// predicates, so every verdict is decided and every plan built: the cold cost
// of a minimization, atom phase and rule phase.
func BenchmarkMinimizeProgram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := workload.Layered(8)
	base.Rules = append(base.Rules, workload.TransitiveClosure().Rules...)
	base = workload.InjectRedundantAtomsProgram(base, 2, rng)
	base = workload.InjectRedundantRules(base, 4, rng)
	progs := make([]*ast.Program, b.N)
	for i := range progs {
		tag := fmt.Sprintf("b%d", benchRenames.Add(1))
		progs[i] = renamePreds(base, func(pred string) string { return pred + tag })
	}
	removed := 0
	b.ResetTimer()
	for _, p := range progs {
		_, tr, err := Program(context.Background(), p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		removed += tr.AtomsRemoved() + tr.RulesRemoved()
	}
	b.ReportMetric(float64(removed)/float64(b.N), "removed/op")
}
