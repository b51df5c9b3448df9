//go:build !race

package repro

import (
	"context"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
)

// Not under the race detector: it makes sync.Pool drop items at random, and
// the pooled executor state is then reallocated.

// TestMaintainBatchAllocs bounds what one batch of ivm-churn's authorization
// stream allocates (BenchmarkMaintain_DRed/authz-grants): the batch and its
// inverse, so the view cycles. The change sets are ids in pooled id sets,
// so a batch's bookkeeping allocates almost nothing; what is left is the
// store's copy-on-write and flatten, the staged set, the Diff, the sort keys
// and the per-unit join orders. The pair allocates 338 times; it allocated
// 674 times when the change sets were scratch and diff databases, and 704
// before that, when the support check and the net diff probed them by value.
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
	if n > 344 {
		t.Fatalf("a batch and its inverse allocate %.0f times, want at most 344", n)
	}
}

// TestMaintainAllocsFlatInDiff: what a batch allocates does not grow with
// its diff the way its facts do. On authz-grants' view, a Direct toggle (one
// user's membership: 85 facts of diff) and a Grant toggle (a group's role,
// every member's rights: 1,512) differ 18× in diff and by a bounded count in
// allocations: the change sets are ids in pooled sets, so what grows with the
// diff is the store's — the tails copy-on-write grows by doubling, the
// relations a batch touches — and the staged set's tables, a few dozen
// allocations. The pairs allocate about 132 and 159 times; they allocated
// 264 and 408 times when the change sets were scratch and diff databases.
func TestMaintainAllocsFlatInDiff(t *testing.T) {
	arm := maintArms()[3]
	pr, err := eval.Prepare(arm.p)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.Materialize(context.Background(), arm.edb)
	if err != nil {
		t.Fatal(err)
	}
	// toggle retracts the tenant's fact id of pred and asserts it again: what
	// the pair allocates, and the diff of the retraction.
	toggle := func(pred string, id int) (allocs float64, diff int) {
		f := []ast.GroundAtom{ast.NewGroundAtom(pred, arm.edb.Relation(pred).Tuple(id)...)}
		pair := func() {
			for _, d := range []eval.Delta{{Retract: f}, {Assert: f}} {
				out, _, err := m.Apply(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				diff = max(diff, len(out.Added)+len(out.Removed))
			}
		}
		pair()
		return testing.AllocsPerRun(20, pair), diff
	}
	small, smallDiff := toggle("Direct", 6)
	large, largeDiff := toggle("Grant", 7)
	if largeDiff < 10*smallDiff {
		t.Fatalf("the Grant toggle's diff (%d) is not 10× the Direct toggle's (%d): the test compares nothing", largeDiff, smallDiff)
	}
	if large-small > 48 {
		t.Errorf("a pair with a %d-fact diff allocates %.0f times, one with %d facts %.0f times: allocations grow with the diff",
			largeDiff, large, smallDiff, small)
	}
}
