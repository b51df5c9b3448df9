package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
	"repro/internal/workload"
)

// TestQuickMonotonicity checks the property the Section X argument leans
// on: "Datalog programs are monotonic — adding more atoms to the input
// does not remove any atom from the output."
func TestQuickMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		small := workload.RandomDB(rng, p, 4, 3)
		big := small.Clone()
		big.AddAll(workload.RandomDB(rng, p, 4, 3))

		outSmall, _, err := Eval(p, small)
		if err != nil {
			return false
		}
		outBig, _, err := Eval(p, big)
		if err != nil {
			return false
		}
		return outBig.Contains(outSmall)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNaiveEqualsSemiNaive checks the engine against the naive oracle
// on random programs and databases.
func TestQuickNaiveEqualsSemiNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		a, sa, err := Eval(p, d)
		if err != nil {
			return false
		}
		b, naiveFirings := oracleEval(t, p, d)
		return a.Equal(b) && sa.Firings <= naiveFirings
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickOutputIsLeastModel checks the Van Emden–Kowalski
// characterization used in Section IV: P(d) is a model containing d, and
// idempotent.
func TestQuickOutputIsLeastModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 3)
		out, _, err := Eval(p, d)
		if err != nil {
			return false
		}
		if !out.Contains(d) || !IsModel(p, out) {
			return false
		}
		again, _, err := Eval(p, out)
		if err != nil {
			return false
		}
		return again.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNonRecursiveSubsetOfFull checks Pⁿ(d) ⊆ P(d) (Section IX
// conventions: Pⁿ omits d itself, P includes it).
func TestQuickNonRecursiveSubsetOfFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 3)
		pn := NonRecursive(p, d)
		full, _, err := Eval(p, d)
		if err != nil {
			return false
		}
		return full.Contains(pn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPreliminaryBetweenInputAndOutput checks d ⊆ ⟨d, Pⁱ(d)⟩ ⊆ P(d),
// the sandwich the Section X argument needs from the preliminary DB.
func TestQuickPreliminaryBetweenInputAndOutput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 3)
		prelim := PreliminaryDB(p, d)
		full, _, err := Eval(p, d)
		if err != nil {
			return false
		}
		return prelim.Contains(d) && full.Contains(prelim)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickReorderInvariance checks the join-order heuristic never changes
// semantics: the engine's greedy order agrees with the oracle's source order,
// whatever order the source bodies are written in.
func TestQuickReorderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		d := workload.RandomDB(rng, p, 4, 4)
		want, _ := oracleEval(t, p, d)
		for i := range p.Rules {
			body := p.Rules[i].Body
			rng.Shuffle(len(body), func(j, k int) { body[j], body[k] = body[k], body[j] })
		}
		got, _, err := Eval(p, d)
		return err == nil && got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompiledEqualsGeneric cross-checks the operator pipeline against
// the generic binding-map oracle (oracle_test.go) on random programs and
// databases: same output, and the same logical work (Firings, Added).
func TestQuickCompiledEqualsGeneric(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			continue
		}
		d := workload.RandomDB(rng, p, 4, 4)
		if _, _, err := Eval(p, d); err != nil {
			continue // unstratifiable
		}
		checkAgainstOracle(t, p, d)
	}
}

func TestCompiledStratifiedNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	in := db.FromFacts([]ast.GroundAtom{
		ga("Src", 1), ga("E", 1, 2), ga("Node", 2), ga("Node", 5),
	})
	out := checkAgainstOracle(t, p, in)
	if !out.Has(ga("Unreach", 5)) || out.Has(ga("Unreach", 2)) {
		t.Fatalf("stratified negation:\n%s", out)
	}
}
