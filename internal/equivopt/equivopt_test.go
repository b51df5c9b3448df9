package equivopt

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

func TestCandidatesExample18(t *testing.T) {
	// Rule: G(x,z) :- G(x,y), G(y,z), A(y,w).
	// The heuristic must propose G(y,z) -> A(y,w) (and G(x,y) -> A(y,w) is
	// excluded by property 2? No: w appears only in A(y,w), which IS the
	// RHS, so both LHS choices qualify).
	r := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z), A(y, w).`).Rules[0]
	cands := Candidates(r, 1)
	var found bool
	for _, c := range cands {
		if c.TGD.String() == "G(y, z) -> A(y, w)." {
			found = true
			if len(c.AtomIndexes) != 1 || c.AtomIndexes[0] != 2 {
				t.Fatalf("wrong atom indexes: %v", c.AtomIndexes)
			}
		}
	}
	if !found {
		t.Fatalf("G(y,z) -> A(y,w) not proposed; got %v", cands)
	}
}

func TestCandidatesProperties(t *testing.T) {
	// Property 3: a candidate must not delete atoms holding head variables
	// that appear nowhere else.
	r := parser.MustParseProgram(`G(x, z) :- G(x, y), B(y, z).`).Rules[0]
	for _, c := range Candidates(r, 1) {
		for _, a := range c.TGD.Rhs {
			if a.HasVar("z") {
				t.Fatalf("candidate deletes the only binding of head variable z: %v", c.TGD)
			}
		}
	}

	// Property 2: if w occurs in two atoms, a candidate whose RHS contains
	// only one of them is rejected.
	r2 := parser.MustParseProgram(`G(x, z) :- G(x, z), A(z, w), B(w).`).Rules[0]
	var pairFound bool
	for _, c := range Candidates(r2, 1) {
		w := 0
		for _, a := range c.TGD.Rhs {
			if a.HasVar("w") {
				w++
			}
		}
		if w == 1 {
			t.Fatalf("RHS with split variable w accepted: %v", c.TGD)
		}
		// The pair {A(z,w), B(w)} is allowed.
		if w == 2 {
			pairFound = true
		}
	}
	if !pairFound {
		t.Fatal("pair candidate not generated")
	}
}

// TestPropertiesNamesEachFailure: Properties reports each broken property
// once, with its first culprit — property 1 first, then 2 and 3 in the
// order the RHS atoms' variables break them.
func TestPropertiesNamesEachFailure(t *testing.T) {
	r := parser.MustParseProgram(`G(x, w) :- A(x, y), G(y, z), B(z, w), C(z, v), D(v).`).Rules[0]
	for _, c := range []struct {
		lhs, rhs []int
		want     string
	}{
		{[]int{1}, []int{3, 4}, ""},
		{[]int{1}, []int{2}, "3 w;"},
		{[]int{0}, []int{3}, "1 A(x, y);2 z;"},
		{[]int{0}, []int{2}, "1 A(x, y);2 z;3 w;"},
		{[]int{1}, []int{2, 3}, "3 w;2 v;"},
	} {
		got := ""
		Properties(r, c.lhs, c.rhs, func(property int, culprit string) {
			got += fmt.Sprintf("%d %s;", property, culprit)
		})
		if got != c.want {
			t.Errorf("Properties(%v, %v) = %q, want %q", c.lhs, c.rhs, got, c.want)
		}
	}
}

func TestCandidatesRequireHeadPredicateLHS(t *testing.T) {
	// No body atom shares the head predicate: no candidates (property 1).
	r := parser.MustParseProgram(`H(x, z) :- A(x, y), B(y, z), C(y).`).Rules[0]
	if cands := Candidates(r, 1); len(cands) != 0 {
		t.Fatalf("candidates without head-predicate LHS: %v", cands)
	}
}

func TestOptimizeExample18(t *testing.T) {
	// P1 of Example 11/18: the atom A(y,w) in the recursive rule is
	// redundant under equivalence (via tgd G(x,z) -> A(x,w)) though not
	// under uniform equivalence.
	p1 := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	opt, removals, err := Optimize(context.Background(), p1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	if !opt.Equal(want) {
		t.Fatalf("optimized:\n%vwant:\n%v", opt, want)
	}
	if len(removals) != 1 || removals[0].Atoms[0].String() != "A(y, w)" {
		t.Fatalf("removals = %+v", removals)
	}
	// Sanity: not removable under uniform equivalence.
	eq, err := chase.UniformlyEquivalent(p1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if eq != chase.No {
		t.Fatal("Example 18 programs should NOT be uniformly equivalent")
	}
}

func TestOptimizeExample19(t *testing.T) {
	// Example 19: both G(y,w) and C(w) are redundant in the recursive rule,
	// witnessed by the tgd G(y,z) -> G(y,w) ∧ C(w).
	p1 := parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(z).
		G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).
	`)
	opt, removals, err := Optimize(context.Background(), p1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	if !opt.Equal(want) {
		t.Fatalf("optimized:\n%vwant:\n%v", opt, want)
	}
	if len(removals) == 0 {
		t.Fatal("no removals recorded")
	}
}

func TestOptimizeLeavesTightProgramsAlone(t *testing.T) {
	for _, src := range []string{
		`G(x, z) :- A(x, z).
		 G(x, z) :- G(x, y), G(y, z).`,
		`G(x, z) :- A(x, z).
		 G(x, z) :- A(x, y), G(y, z).`,
	} {
		p := parser.MustParseProgram(src)
		opt, removals, err := Optimize(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Equal(p) || len(removals) != 0 {
			t.Fatalf("tight program modified:\n%v", opt)
		}
	}
}

// equivalentOnRandomEDBs samples random EDBs and checks P1(d) == P2(d);
// this is the soundness property equivalence optimization must preserve.
func equivalentOnRandomEDBs(t *testing.T, p1, p2 *ast.Program, preds []ast.PredicateSig, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idb := p1.IDBPredicates()
	for trial := 0; trial < trials; trial++ {
		d := db.New()
		n := 2 + rng.Intn(5)
		for _, sig := range preds {
			if idb[sig.Name] {
				continue
			}
			for k := 0; k < 1+rng.Intn(6); k++ {
				args := make([]ast.Const, sig.Arity)
				for i := range args {
					args[i] = ast.Int(int64(rng.Intn(n)))
				}
				d.AddTuple(sig.Name, args)
			}
		}
		o1 := eval.MustEval(p1, d)
		o2 := eval.MustEval(p2, d)
		if !o1.Equal(o2) {
			t.Fatalf("trial %d: outputs differ on EDB\n%s\nP1 out:\n%s\nP2 out:\n%s", trial, d, o1, o2)
		}
	}
}

func TestOptimizedProgramsEquivalentOnRandomEDBs(t *testing.T) {
	cases := []string{
		`G(x, z) :- A(x, z).
		 G(x, z) :- G(x, y), G(y, z), A(y, w).`,
		`G(x, z) :- A(x, z), C(z).
		 G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).`,
	}
	for i, src := range cases {
		p := parser.MustParseProgram(src)
		opt, _, err := Optimize(context.Background(), p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		equivalentOnRandomEDBs(t, p, opt, p.Predicates(), 25, int64(100+i))
	}
}

func TestPipelineRejectsWhenPreliminaryFails(t *testing.T) {
	// Like Example 18 but the init rule does not guarantee the tgd: with
	// init rule G(x,z) :- B(x,z), the preliminary DB need not satisfy
	// G(x,z) -> A(x,w), so A(y,w) must NOT be removed. Indeed the programs
	// are inequivalent: EDB {B(1,2), B(2,3)} gives G(1,3) only without the
	// guard.
	p := parser.MustParseProgram(`
		G(x, z) :- B(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	opt, removals, err := Optimize(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 0 || !opt.Equal(p) {
		t.Fatalf("unsound removal performed: %+v\n%v", removals, opt)
	}
}

func TestPipelineRejectsWhenPreservationFails(t *testing.T) {
	// G is also fed by rule G(x,z) :- D(x,z): chained G atoms built from D
	// have no A witness, so preservation of G(x,z) -> A(x,w) fails... but
	// condition (3′) also fails (the D-init rule gives no A). Either way,
	// no removal may happen, and the programs really are inequivalent.
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- D(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	opt, removals, err := Optimize(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 0 || !opt.Equal(p) {
		t.Fatalf("unsound removal performed: %+v\n%v", removals, opt)
	}
	// Witness of inequivalence for the would-be-optimized program.
	p2 := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- D(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	d := db.FromFacts([]ast.GroundAtom{
		ast.NewGroundAtom("D", ast.Int(1), ast.Int(2)),
		ast.NewGroundAtom("D", ast.Int(2), ast.Int(3)),
	})
	o1 := eval.MustEval(p, d)
	o2 := eval.MustEval(p2, d)
	if o1.Equal(o2) {
		t.Fatal("expected witness EDB to distinguish the programs")
	}
}

func TestOptimizeNegationRejected(t *testing.T) {
	p := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	if _, _, err := Optimize(context.Background(), p, Options{}); err == nil {
		t.Fatal("negation accepted")
	}
}

func TestEnumerateSubsets(t *testing.T) {
	subs := enumerateSubsets(3, 2)
	// {0},{1},{2},{0,1},{0,2},{1,2}
	if len(subs) != 6 {
		t.Fatalf("enumerateSubsets(3,2) = %v", subs)
	}
	if len(subs[0]) != 1 || len(subs[5]) != 2 {
		t.Fatalf("ordering wrong: %v", subs)
	}
	if got := enumerateSubsets(0, 3); len(got) != 0 {
		t.Fatalf("enumerateSubsets(0,3) = %v", got)
	}
}

func TestTwoAtomLHSCandidates(t *testing.T) {
	// G(x,z) :- G(x,y), G(y,z), C(y): the witness tgd needs both G atoms on
	// the left (C(y) relates to the JOIN point y, visible only when both
	// atoms are present), as in Example 15's shape.
	r := parser.MustParseProgram(`G(x, z) :- G(x, y), G(y, z), C(y).`).Rules[0]
	single := Candidates(r, 1)
	double := Candidates(r, 2)
	if len(double) <= len(single) {
		t.Fatalf("maxLHS=2 added no candidates: %d vs %d", len(double), len(single))
	}
	found := false
	for _, c := range double {
		if c.TGD.String() == "G(x, y), G(y, z) -> C(y)." {
			found = true
		}
	}
	if !found {
		t.Fatalf("two-atom-LHS tgd not proposed; got %v", double)
	}
}

func TestOptimizeWithTwoAtomLHS(t *testing.T) {
	// The init rule guarantees C at both G endpoints, so C(y) at the join
	// point is redundant under equivalence. The single-atom heuristic
	// already finds this via G(x,y) -> C(y); MaxLHS=2 must find it too
	// (with either witness) and stay sound.
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(x), C(z).
		G(x, z) :- G(x, y), G(y, z), C(y).
	`)
	want := parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(x), C(z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	for _, maxLHS := range []int{1, 2} {
		opt, removals, err := Optimize(context.Background(), p, Options{MaxLHS: maxLHS})
		if err != nil {
			t.Fatal(err)
		}
		if len(removals) != 1 || !opt.Equal(want) {
			t.Fatalf("MaxLHS=%d: removals %+v\n%v", maxLHS, removals, opt)
		}
		equivalentOnRandomEDBs(t, p, opt, p.Predicates(), 20, int64(300+maxLHS))
	}
}

func TestTwoAtomLHSStaysSound(t *testing.T) {
	// MaxLHS=2 widens the candidate space; the pipeline must still refuse
	// every unsound deletion. These programs have NO redundant atoms.
	for i, src := range []string{
		`G(x, z) :- B(x, z).
		 G(x, z) :- G(x, y), G(y, z), C(y).`,
		`G(x, z) :- A(x, z).
		 G(x, z) :- G(x, y), G(y, z), A(y, y).`,
	} {
		p := parser.MustParseProgram(src)
		opt, removals, err := Optimize(context.Background(), p, Options{MaxLHS: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(removals) != 0 || !opt.Equal(p) {
			t.Fatalf("case %d: unsound removal %+v\n%v", i, removals, opt)
		}
	}
}
