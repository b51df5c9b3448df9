package chase

import (
	"context"
	"testing"

	"repro/internal/parser"
	"repro/internal/workload"
)

// TestStreamingSelectedForContainment guards the schedule property the E2/E7
// containment benchmarks depend on: a frozen-body containment query over a
// non-recursive program has only non-recursive strata, so the checker's
// goal-directed evaluations must finish each stratum in one pass (no delta
// rounds, no confirmation round), and the verdicts' eval stats must surface
// through Checker.Stats. The tested rule is the unfolding of P2 through P1 —
// uniformly contained in the layered program but θ-subsumed by none of its
// rules, so the syntactic fast path cannot decide it and a real chase must
// run. A silent regression (strata taking extra rounds) fails here long
// before it shows up as a benchmark delta.
func TestStreamingSelectedForContainment(t *testing.T) {
	p := workload.Layered(8)
	ck, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	unfolded := parser.MustParseProgram(`P2(x, z) :- E(x, y), E(y, z).`).Rules[0]
	contained, err := ck.ContainsRule(context.Background(), unfolded)
	if err != nil {
		t.Fatal(err)
	}
	if !contained {
		t.Fatal("unfolded P2 rule must be uniformly contained in the layered program")
	}
	st := ck.Stats()
	if st.VerdictsRecomputed == 0 {
		t.Fatalf("verdict was not decided by a chase; the guard is vacuous: %+v", st)
	}
	if st.StrataStreamed == 0 || st.StrataMaterialized != 0 {
		t.Fatalf("containment chase strata did not all finish in one pass: %+v", st)
	}
	if st.BindingsPipelined == 0 {
		t.Fatalf("containment chase pipelined no bindings: %+v", st)
	}
}
