package minimize

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
)

// TestStratifiedContainmentYesHolds checks every Yes of the cross-program
// stratified test against evaluation. Each P₂ is drawn against a random
// stratified P₁: P₁ minus one rule, P₁ with one rule swapped for another
// program's, or another program outright — the first two are how a P₂ comes
// to lack a rule P₁ derives a negated predicate with. Each Yes must hold,
// P₂(d) ⊆ P₁(d), on 40 random databases of extensional and intensional facts
// over the constants {0, 1}.
func TestStratifiedContainmentYesHolds(t *testing.T) {
	want := 1000
	if testing.Short() {
		want = 150
	}
	const dbs = 40
	draw := func(seed int64) *ast.Program {
		for ; ; seed += 1 << 20 {
			if p := randomStratifiedProgram(rand.New(rand.NewSource(seed))); p != nil {
				return p
			}
		}
	}
	yes, tests := 0, 0
	for seed := int64(0); yes < want; seed++ {
		if seed > int64(20*want) {
			t.Fatalf("only %d Yes verdicts in %d tests", yes, tests)
		}
		rng := rand.New(rand.NewSource(seed))
		p1, other := draw(seed), draw(seed+1)
		var p2 *ast.Program
		switch i := rng.Intn(len(p1.Rules)); rng.Intn(3) {
		case 0:
			p2 = p1.Clone()
			p2.Rules = append(p2.Rules[:i], p2.Rules[i+1:]...)
		case 1:
			p2 = p1.ReplaceRule(i, other.Rules[rng.Intn(len(other.Rules))])
		default:
			p2 = other
		}
		if len(p2.Rules) == 0 || p2.Validate() != nil || depgraph.Build(p2).Stratified() != nil {
			continue
		}
		tests++
		v, _, err := chase.StratifiedUniformlyContains(p1, p2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v != chase.Yes {
			continue
		}
		yes++
		for k := 0; k < dbs; k++ {
			d := randomTwoConstantDB(rng, p1, p2)
			out1, _, err1 := eval.Eval(p1, d, eval.Options{})
			out2, _, err2 := eval.Eval(p2, d, eval.Options{})
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v %v", seed, err1, err2)
			}
			for _, f := range out2.Facts() {
				if !out1.Has(f) {
					t.Fatalf("seed %d: Yes refuted: %s ∈ P2(d) \\ P1(d)\nd = %v\nP1:\n%s\nP2:\n%s", seed, f, d.Facts(), p1, p2)
				}
			}
		}
	}
	t.Logf("%d Yes verdicts in %d tests, each held on %d databases", yes, tests, dbs)
}

// randomTwoConstantDB holds each possible fact of every predicate of p1 and
// p2 over the constants {0, 1} with probability 1/3.
func randomTwoConstantDB(rng *rand.Rand, p1, p2 *ast.Program) *db.Database {
	d := db.New()
	sigs := append(p1.Predicates(), p2.Predicates()...)
	for i, sig := range sigs {
		if slices.Contains(sigs[:i], sig) {
			continue
		}
		args := make([]ast.Const, sig.Arity)
		for tuple := 0; tuple < 1<<sig.Arity; tuple++ {
			if rng.Intn(3) != 0 {
				continue
			}
			for j := range args {
				args[j] = ast.Int(int64(tuple >> j & 1))
			}
			d.AddTuple(sig.Name, args)
		}
	}
	return d
}
