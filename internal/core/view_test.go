package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestSessionMaterializeApply(t *testing.T) {
	p, err := core.ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	input := core.FromFacts([]core.GroundAtom{
		{Pred: "A", Args: []core.Const{1, 2}},
		{Pred: "A", Args: []core.Const{2, 3}},
	})
	view, _, err := sess.Materialize(context.Background(), input, core.MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if view.Version() != 1 || view.Session() != sess {
		t.Fatalf("version=%d session=%p, want version 1 of %p", view.Version(), view.Session(), sess)
	}
	if !view.Output().Has(core.GroundAtom{Pred: "G", Args: []core.Const{1, 3}}) {
		t.Fatal("missing G(1,3)")
	}

	// Apply returns the exact diff.
	diff, _, err := view.Apply(context.Background(), core.DatabaseDelta{
		Retract: []core.GroundAtom{{Pred: "A", Args: []core.Const{2, 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Removed) != 3 || len(diff.Added) != 0 {
		t.Fatalf("diff = %+v, want A(2,3), G(2,3), G(1,3) removed", diff)
	}
	if view.Output().Has(core.GroundAtom{Pred: "G", Args: []core.Const{1, 3}}) {
		t.Fatal("G(1,3) survived the cut")
	}
	if view.Version() != 2 {
		t.Fatalf("version = %d, want 2", view.Version())
	}
	// Maintenance work is folded into the session's accounted totals.
	st, n := sess.Stats()
	if st.Applies != 1 || n < 2 {
		t.Fatalf("stats = %+v requests = %d, want Applies=1 and >=2 requests", st, n)
	}
}
