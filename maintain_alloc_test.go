//go:build !race

package repro

import (
	"context"
	"testing"

	"repro/internal/eval"
)

// Not under the race detector: it makes sync.Pool drop items at random, and
// the pooled executor state is then reallocated.

// TestMaintainBatchAllocs bounds what one batch of ivm-churn's authorization
// stream allocates (BenchmarkMaintain_DRed/authz-grants): the batch and its
// inverse, so the view cycles. The working sets a view keeps, and the marks
// its passes set by id, make most of a batch's bookkeeping free; what is left
// is the store's copy-on-write and flatten, the diff sets and the Diff, the
// sort keys and the per-unit join orders. The pair allocates 674 times; it
// allocated 704 times when the support check and the net diff probed scratch
// sets by value.
func TestMaintainBatchAllocs(t *testing.T) {
	arm := maintArms()[3]
	pr, err := eval.Prepare(arm.p)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.Materialize(context.Background(), arm.edb)
	if err != nil {
		t.Fatal(err)
	}
	batch, inverse := arm.ops[0][0], arm.ops[len(arm.ops)-1][0]
	n := testing.AllocsPerRun(20, func() {
		for _, d := range []eval.Delta{batch, inverse} {
			if _, _, err := m.Apply(context.Background(), d); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > 680 {
		t.Fatalf("a batch and its inverse allocate %.0f times, want at most 680", n)
	}
}
