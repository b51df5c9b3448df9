package unfold_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/unfold"
	"repro/internal/workload"
)

func TestPartialDepth1IsOriginal(t *testing.T) {
	p := workload.TransitiveClosure()
	res, err := unfold.Partial(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != len(p.Rules) {
		t.Fatalf("partial depth 1: %v", res.Program)
	}
}

// TestPartialMatchesKRoundsWithIDBInput is the semantic core of Partial:
// Qⁿ(d) equals k naive rounds of P even when d holds IDB facts.
func TestPartialMatchesKRoundsWithIDBInput(t *testing.T) {
	p := workload.TransitiveClosure()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		d := db.New()
		n := 3 + rng.Intn(4)
		for e := 0; e < n; e++ {
			d.Add(ast.NewGroundAtom("A", ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))))
			d.Add(ast.NewGroundAtom("G", ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))))
		}
		for k := 1; k <= 3; k++ {
			res, err := unfold.Partial(p, k)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete {
				t.Fatalf("partial unfolding truncated at k=%d", k)
			}
			got := eval.NonRecursive(res.Program, d)
			// k rounds of P, projected to newly derived facts.
			cur := d.Clone()
			for i := 0; i < k; i++ {
				cur.AddAll(eval.NonRecursive(p, cur))
			}
			want := db.New()
			for _, f := range cur.Facts() {
				if f.Pred == "G" {
					want.Add(f)
				}
			}
			// got excludes nothing of want except G facts already... Qⁿ(d)
			// contains every G derivable within k rounds; want additionally
			// holds input G facts. Compare on want minus input.
			for _, f := range want.Facts() {
				if d.Has(f) {
					continue
				}
				if !got.Has(f) {
					t.Fatalf("k=%d: missing %v\nQⁿ(d)=%v", k, f, got)
				}
			}
			// And soundness: everything in Qⁿ(d) is in P(d).
			full := eval.MustEval(p, d)
			if !full.Contains(got) {
				t.Fatalf("k=%d: Qⁿ(d) unsound", k)
			}
		}
	}
}

// depth2Program needs two rounds for the H witness: the guard H(x) in the
// recursive R rule is justified by the tgd R(x,y) -> H(x), whose proof
// requires both a two-round preliminary DB and two-round preservation.
func depth2Program() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		H(x) :- G(x, y).
		R(x, z) :- A(x, q), B(x, z).
		R(x, z) :- R(x, y), B(y, z), H(x).
	`)
}

func TestNonRecursivelyAtDepth(t *testing.T) {
	p := depth2Program()
	tau := parser.MustParseTGD("R(x, y) -> H(x).")
	// Depth 1 fails: one application of the R-init rule yields R without H.
	v, _, err := preserve.Check(p, []ast.TGD{tau}, preserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.No {
		t.Fatalf("depth-1 preservation verdict %v, want no", v)
	}
	// Depth 2 succeeds: the two-round block derives H(x) from A(x,q).
	v, cex, err := preserve.Check(p, []ast.TGD{tau}, preserve.Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != chase.Yes {
		t.Fatalf("depth-2 preservation verdict %v (cex %v)", v, cex)
	}
}

func TestPipelineNeedsDepth2(t *testing.T) {
	// End to end: the guard H(x) in R's recursive rule is removable under
	// plain equivalence, but only a depth-2 pipeline can prove it.
	p := depth2Program()
	opt1, removals1, err := equivopt.Optimize(context.Background(), p, equivopt.Options{PrelimDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(removals1) != 0 || !opt1.Equal(p) {
		t.Fatalf("depth-1 pipeline should not fire: %+v", removals1)
	}
	opt2, removals2, err := equivopt.Optimize(context.Background(), p, equivopt.Options{PrelimDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(removals2) != 1 || removals2[0].Atoms[0].String() != "H(x)" {
		t.Fatalf("depth-2 pipeline removals: %+v\n%v", removals2, opt2)
	}
	// Soundness: same outputs on random EDBs.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		d := db.New()
		n := 2 + rng.Intn(4)
		for e := 0; e < 2*n; e++ {
			d.Add(ast.NewGroundAtom("A", ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))))
			d.Add(ast.NewGroundAtom("B", ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))))
		}
		o1 := eval.MustEval(p, d)
		o2 := eval.MustEval(opt2, d)
		if !o1.Equal(o2) {
			t.Fatalf("trial %d: depth-2 removal unsound on\n%s", trial, d)
		}
	}
}

func TestPartialErrors(t *testing.T) {
	if _, err := unfold.Partial(workload.TransitiveClosure(), 0); err == nil {
		t.Fatal("depth 0 accepted")
	}
	neg := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	if _, err := unfold.Partial(neg, 2); err == nil {
		t.Fatal("negation accepted")
	}
}

func TestPartialTruncation(t *testing.T) {
	// Doubling TC's depth-4 partial unfolding passes the rule cap.
	res, err := unfold.Partial(workload.TransitiveClosure(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatalf("a capped unfolding of %d rules reported complete", len(res.Program.Rules))
	}
}
