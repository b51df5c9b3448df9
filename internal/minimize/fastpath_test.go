package minimize

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// The subsumption fast path must eliminate chase calls on the redundancy
// workloads the harness measures (every injected atom/rule is a
// specialization of something already in the program) while leaving the
// minimized program byte-identical to the ablated run. Predicate names are
// renamed apart from the shared workloads so the process-wide verdict store
// cannot hand either run a verdict decided elsewhere.
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

	slow, slowTrace, err := Program(context.Background(), p, Options{DisableSyntacticFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := slowTrace.Stats.VerdictsSubsumed; got != 0 {
		t.Fatalf("ablated run still took the fast path %d times", got)
	}
	if fast.Format(nil) != slow.Format(nil) {
		t.Fatalf("minimization output differs with fast path on/off:\nfast:\n%s\nslow:\n%s",
			fast.Format(nil), slow.Format(nil))
	}

	// The workloads' redundancy is wholly syntactic, so minimization must
	// recover the base program (up to the injector's variable renaming).
	if fast.CanonicalString() != base.CanonicalString() {
		t.Fatalf("minimization left redundancy behind:\n%s\nwant:\n%s", fast.Format(nil), base.Format(nil))
	}
}
