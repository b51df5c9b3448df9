package minimize

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// The subsumption fast path must eliminate chase calls on the redundancy
// workloads the harness measures (every injected atom/rule is a
// specialization of something already in the program). That each verdict it
// forces is one the chase would reach is TestSyntacticVerdictAgreesWithChase's
// job (internal/chase), which bypasses the verdict memo; a second run here
// with the fast path off would only reread the verdicts this one published.
// Predicate names are renamed apart from the shared workloads so the
// process-wide verdict store cannot hand the run a verdict decided elsewhere.
func TestSubsumptionFastPathMinimization(t *testing.T) {
	base := workload.TransitiveClosure()
	for i := range base.Rules {
		base.Rules[i] = base.Rules[i].Clone()
		base.Rules[i].Head.Pred = "Mfp" + base.Rules[i].Head.Pred
		for j := range base.Rules[i].Body {
			base.Rules[i].Body[j].Pred = "Mfp" + base.Rules[i].Body[j].Pred
		}
	}
	p := workload.InjectRedundantRules(base, 3, rand.New(rand.NewSource(11)))
	p = workload.InjectRedundantAtomsProgram(p, 2, rand.New(rand.NewSource(12)))

	fast, fastTrace, err := Program(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fastTrace.Stats.VerdictsSubsumed; got < 1 {
		t.Fatalf("fast path eliminated %d chase calls, want >= 1 (stats %+v)", got, fastTrace.Stats)
	}

	// The workloads' redundancy is wholly syntactic, so minimization must
	// recover the base program (up to the injector's variable renaming).
	if fast.CanonicalString() != base.CanonicalString() {
		t.Fatalf("minimization left redundancy behind:\n%s\nwant:\n%s", fast.Format(nil), base.Format(nil))
	}
}
