package unfold_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/unfold"
	"repro/internal/workload"
)

// renamedPermuted returns p with its rules shuffled and every rule's
// variables renamed by a random bijection (so neither the rule order nor the
// order of variable names survives): a program equal to p up to rule order
// and per-rule alpha-renaming.
func renamedPermuted(p *ast.Program, rng *rand.Rand) *ast.Program {
	q := ast.NewProgram()
	for k, i := range rng.Perm(len(p.Rules)) {
		pool, names := rng.Perm(64), map[string]string{}
		q.Rules = append(q.Rules, p.Rules[i].Rename(func(v string) string {
			if _, ok := names[v]; !ok {
				names[v] = fmt.Sprintf("r%d_%d", k, pool[len(names)])
			}
			return names[v]
		}))
	}
	return q
}

// TestCompleteUnfoldingIsContentAddressed pins what the plan cache keys the
// preservation sessions' depth entries on: a complete ToDepth or Partial
// build of a rule-permuted, alpha-renamed copy of a program is byte-identical
// to the build of the program itself, so the two share one prepared plan.
// (A truncated build is not covered: which rules make the cap depends on the
// enumeration order.)
func TestCompleteUnfoldingIsContentAddressed(t *testing.T) {
	kinds := []struct {
		name  string
		build func(*ast.Program, int) (unfold.Result, error)
	}{
		{"ToDepth", unfold.ToDepth},
		{"Partial", unfold.Partial},
	}
	programs := []*ast.Program{
		workload.TransitiveClosure(),
		parser.MustParseProgram(`
			G(x, z) :- A(x, z), B(z, z).
			G(x, z) :- G(x, y), G(y, z).
			H(x, z) :- G(x, z), B(x, z).
			H(x, z) :- H(x, y), A(y, z).
		`),
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if q := workload.RandomProgram(rng, 2+rng.Intn(4)); q.Validate() == nil {
			programs = append(programs, q)
		}
	}
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for n, p := range programs {
		twin := renamedPermuted(p, rng)
		for _, kind := range kinds {
			for depth := 1; depth <= 3; depth++ {
				res, err := kind.build(p, depth)
				if err != nil {
					t.Fatal(err)
				}
				got, err := kind.build(twin, depth)
				if err != nil {
					t.Fatal(err)
				}
				if res.Complete != got.Complete {
					t.Fatalf("program %d %s depth %d: complete %v vs %v", n, kind.name, depth, res.Complete, got.Complete)
				}
				if !res.Complete {
					continue
				}
				if want, got := res.Program.String(), got.Program.String(); got != want {
					t.Fatalf("program %d %s depth %d: the twin's unfolding differs\ngot:\n%s\nwant:\n%s\nprogram:\n%s\ntwin:\n%s",
						n, kind.name, depth, got, want, p, twin)
				}
				compared++
			}
		}
	}
	if compared < 4*len(programs) {
		t.Fatalf("only %d complete builds compared over %d programs", compared, len(programs))
	}
}
