package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// TestConjMatchesOracle: a headless plan with a random prefix of its
// variables pre-bound yields the oracle matcher's rows, in the oracle's
// order, and Ground instantiates each atom as the binding does.
func TestConjMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := workload.RandomDigraph("A", 5, 12, rng.Int63())
		d.AddAll(workload.RandomDigraph("B", 5, 8, rng.Int63()))
		vars := []string{"x", "y", "z", "w"}
		term := func() ast.Term {
			if rng.Intn(6) == 0 {
				return ast.IntTerm(int64(rng.Intn(5)))
			}
			return ast.Var(vars[rng.Intn(len(vars))])
		}
		atoms := make([]ast.Atom, 1+rng.Intn(3))
		for i := range atoms {
			atoms[i] = ast.NewAtom([]string{"A", "B", "Missing"}[rng.Intn(5)%3], term(), term())
		}
		// Pre-bind a random subset of the pool (a bound variable need not occur).
		var bound []string
		b := ast.Binding{}
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				bound = append(bound, v)
				b[v] = ast.Int(int64(rng.Intn(5)))
			}
		}
		c := LowerConj(atoms, bound)
		frame := make([]ast.Const, len(c.Vars()))
		for i, v := range bound {
			frame[i] = b[v]
		}

		var want, got []string
		oracle.MatchConjunction(d, atoms, b, func() bool {
			row := ""
			for _, a := range atoms {
				row += a.MustGround(b).String()
			}
			want = append(want, row)
			return true
		})
		var st Stats
		var buf []ast.Const
		c.Each(d, frame, &st, func() bool {
			row := ""
			for i := range atoms {
				pred, args := c.Ground(i, buf, frame)
				row += ast.GroundAtom{Pred: pred, Args: args}.String()
				buf = args
			}
			got = append(got, row)
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) || st.Firings != len(want) {
			t.Fatalf("seed %d: %v with %v bound over\n%s\nconj   %v (%d firings)\noracle %v", seed, atoms, b, d, got, st.Firings, want)
		}
	}
}
