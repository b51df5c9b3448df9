package topdown

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/magic"
	"repro/internal/parser"
	"repro/internal/workload"
)

func sortTuples(ts [][]ast.Const) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

func sameTuples(a, b [][]ast.Const) bool {
	if len(a) != len(b) {
		return false
	}
	sortTuples(a)
	sortTuples(b)
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func TestBoundQueryOnChain(t *testing.T) {
	p := workload.Ancestor()
	edb := workload.Chain("Par", 20)
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans, stats, err := eng.Query(parser.MustParseAtom("Anc(15, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 5 {
		t.Fatalf("got %d answers: %v", len(ans), ans)
	}
	// Goal-directedness: the subgoal count stays near the relevant suffix
	// of the chain, far below the 20*21/2 facts of the full closure.
	if stats.Answers > 40 {
		t.Fatalf("top-down computed %d answers — not goal-directed", stats.Answers)
	}
}

func TestAgreesWithBottomUpAndMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := workload.Ancestor()
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(8)
		edb := db.New()
		for e := 0; e < 2*n; e++ {
			edb.Add(ast.GroundAtom{Pred: "Par", Args: []ast.Const{
				ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))}})
		}
		query := ast.NewAtom("Anc", ast.IntTerm(int64(rng.Intn(n))), ast.Var("y"))

		eng, err := New(p, edb)
		if err != nil {
			t.Fatal(err)
		}
		tdAns, _, err := eng.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		buAns, _, err := magic.DirectAnswer(p, edb, query)
		if err != nil {
			t.Fatal(err)
		}
		mAns, _, err := magic.Answer(p, edb, query)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(tdAns, buAns) || !sameTuples(tdAns, mAns) {
			t.Fatalf("trial %d: topdown %v, direct %v, magic %v on\n%s", trial, tdAns, buAns, mAns, edb)
		}
	}
}

func TestDoubledRecursionAndFreeQuery(t *testing.T) {
	// The doubled TC rule exercises two intentional atoms per body.
	p := workload.TransitiveClosure()
	edb := workload.Cycle("A", 5)
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.Query(parser.MustParseAtom("G(x, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 25 {
		t.Fatalf("closure of a 5-cycle has 25 pairs, got %d", len(ans))
	}
}

func TestSameGeneration(t *testing.T) {
	p := workload.SameGeneration()
	edb := db.New()
	for _, f := range []struct {
		pred string
		a, b int64
	}{
		{"Up", 1, 10}, {"Up", 2, 10}, {"Up", 3, 11},
		{"Flat", 10, 11}, {"Flat", 10, 10},
		{"Down", 10, 1}, {"Down", 11, 3}, {"Down", 11, 4},
	} {
		edb.Add(ast.GroundAtom{Pred: f.pred, Args: []ast.Const{ast.Int(f.a), ast.Int(f.b)}})
	}
	query := parser.MustParseAtom("Sg(1, y)")
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	tdAns, _, err := eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := magic.DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(tdAns, directAns) {
		t.Fatalf("same-generation: %v vs %v", tdAns, directAns)
	}
}

func TestEDBQuery(t *testing.T) {
	p := workload.Ancestor()
	edb := workload.Chain("Par", 5)
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.Query(parser.MustParseAtom("Par(2, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][1] != ast.Int(3) {
		t.Fatalf("EDB query: %v", ans)
	}
}

func TestTablesReusedAcrossQueries(t *testing.T) {
	p := workload.Ancestor()
	edb := workload.Chain("Par", 15)
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	_, s1, err := eng.Query(parser.MustParseAtom("Anc(10, y)"))
	if err != nil {
		t.Fatal(err)
	}
	// The second query's subgoals are a subset of the first's.
	_, s2, err := eng.Query(parser.MustParseAtom("Anc(12, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Subgoals != s1.Subgoals {
		t.Fatalf("overlapping query created tables: %d then %d", s1.Subgoals, s2.Subgoals)
	}
}

func TestConstantsInRuleHeads(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, 3) :- A(x, 3).
		G(x, z) :- A(x, y), G(y, z).
	`)
	edb := db.FromFacts([]ast.GroundAtom{
		{Pred: "A", Args: []ast.Const{ast.Int(1), ast.Int(2)}},
		{Pred: "A", Args: []ast.Const{ast.Int(2), ast.Int(3)}},
	})
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.Query(parser.MustParseAtom("G(1, y)"))
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := magic.DirectAnswer(p, edb, parser.MustParseAtom("G(1, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(ans, directAns) {
		t.Fatalf("constant heads: %v vs %v", ans, directAns)
	}
}

func TestStratifiedNegationSingleStratumRule(t *testing.T) {
	// A single rule with negation over extensional predicates: the lower
	// strata are empty and the negated check reads the EDB directly.
	p := parser.MustParseProgram(`P(x) :- A(x), !B(x).`)
	edb := db.FromFacts([]ast.GroundAtom{
		{Pred: "A", Args: []ast.Const{ast.Int(1)}},
		{Pred: "A", Args: []ast.Const{ast.Int(2)}},
		{Pred: "B", Args: []ast.Const{ast.Int(2)}},
	})
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.Query(parser.MustParseAtom("P(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != ast.Int(1) {
		t.Fatalf("P answers: %v", ans)
	}
}

func TestEmptyEDB(t *testing.T) {
	eng, err := New(workload.Ancestor(), db.New())
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.Query(parser.MustParseAtom("Anc(1, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("answers from empty EDB: %v", ans)
	}
}

func TestStratifiedNegationTopDown(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x) :- Node(x), !Reach(x).
	`)
	edb := db.New()
	for _, f := range []ast.GroundAtom{
		{Pred: "Src", Args: []ast.Const{ast.Int(1)}},
		{Pred: "E", Args: []ast.Const{ast.Int(1), ast.Int(2)}},
		{Pred: "Node", Args: []ast.Const{ast.Int(2)}},
		{Pred: "Node", Args: []ast.Const{ast.Int(7)}},
	} {
		edb.Add(f)
	}
	eng, err := New(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.Query(parser.MustParseAtom("Dead(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != ast.Int(7) {
		t.Fatalf("Dead answers: %v", ans)
	}
	// The materialized lower stratum answers like an EDB predicate.
	reach, _, err := eng.Query(parser.MustParseAtom("Reach(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reach) != 2 {
		t.Fatalf("Reach answers: %v", reach)
	}
	// Agreement with bottom-up on the same query.
	buOut := eval.MustEval(p, edb)
	for _, a := range ans {
		if !buOut.Has(ast.GroundAtom{Pred: "Dead", Args: a}) {
			t.Fatalf("top-down invented %v", a)
		}
	}
}

func TestUnstratifiableRejectedTopDown(t *testing.T) {
	p := parser.MustParseProgram(`
		P(x) :- A(x), !Q(x).
		Q(x) :- A(x), !P(x).
	`)
	if _, err := New(p, db.New()); err == nil {
		t.Fatal("unstratifiable program accepted")
	}
}

// randomQuery draws a query over pred with each column a constant of the
// domain or a variable, repeated variables included.
func randomQuery(rng *rand.Rand, pred string, domain int) ast.Atom {
	term := func() ast.Term {
		if rng.Intn(2) == 0 {
			return ast.IntTerm(int64(rng.Intn(domain)))
		}
		return ast.Var([]string{"u", "v"}[rng.Intn(2)])
	}
	return ast.NewAtom(pred, term(), term())
}

// TestEnginesAgreeOnRandomPrograms is the differential the tabled engine is
// kept for. On random pure programs and random (bound, free, repeated-
// variable) queries, three ways of answering agree: bottom-up evaluation read
// with db.Select, magic sets, and tabling through the oracle matcher. With a negating stratum R on top — read by a query on R
// — the three that support negation agree: bottom-up, stratified magic and
// tabling. The seed names the failing case.
func TestEnginesAgreeOnRandomPrograms(t *testing.T) {
	const domain = 5
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 2+rng.Intn(4))
		edb := workload.RandomDB(rng, p, domain, 4+rng.Intn(8))
		for _, pred := range []string{"A", "B"} { // R below reads both, whether or not p does
			edb.Add(ast.NewGroundAtom(pred, ast.Int(int64(rng.Intn(domain))), ast.Int(int64(rng.Intn(domain)))))
		}
		answers := func(name string, p *ast.Program, q ast.Atom, f func() ([][]ast.Const, error)) [][]ast.Const {
			ans, err := f()
			if err != nil {
				t.Fatalf("seed %d: %s on %v over\n%s%s: %v", seed, name, q, p, edb, err)
			}
			return ans
		}
		tabled := func(p *ast.Program, q ast.Atom) func() ([][]ast.Const, error) {
			return func() ([][]ast.Const, error) {
				eng, err := New(p, edb)
				if err != nil {
					return nil, err
				}
				ans, _, err := eng.Query(q)
				return ans, err
			}
		}
		drop := func(f func(*ast.Program, *db.Database, ast.Atom) ([][]ast.Const, magic.Stats, error), p *ast.Program, q ast.Atom) func() ([][]ast.Const, error) {
			return func() ([][]ast.Const, error) {
				ans, _, err := f(p, edb, q)
				return ans, err
			}
		}

		for k := 0; k < 4; k++ {
			q := randomQuery(rng, []string{"P", "Q"}[rng.Intn(2)], domain)
			if !p.IDBPredicates()[q.Pred] {
				continue
			}
			want := answers("bottom-up", p, q, func() ([][]ast.Const, error) { return eval.Query(p, edb, q) })
			for name, f := range map[string]func() ([][]ast.Const, error){
				"magic":  drop(magic.Answer, p, q),
				"tabled": tabled(p, q),
			} {
				if got := answers(name, p, q, f); !sameTuples(got, want) {
					t.Fatalf("seed %d: %v over\n%s%s%s answers %v, bottom-up %v", seed, q, p, edb, name, got, want)
				}
			}
		}

		// R(x, y) :- A(x, y), !P(x, y) (or the like) puts a stratum above p.
		vars := []ast.Term{ast.Var("x"), ast.Var("y")}
		sp := p.Clone()
		sp.Rules = append(sp.Rules, ast.Rule{
			Head:    ast.NewAtom("R", vars[rng.Intn(2)], vars[rng.Intn(2)]),
			Body:    []ast.Atom{ast.NewAtom([]string{"A", "B"}[rng.Intn(2)], vars[0], vars[1])},
			NegBody: []ast.Atom{ast.NewAtom("P", vars[rng.Intn(2)], vars[rng.Intn(2)])},
		})
		if rng.Intn(2) == 0 {
			sp.Rules = append(sp.Rules, ast.NewRule(ast.NewAtom("R", vars[0], vars[1]),
				ast.NewAtom("R", vars[0], ast.Var("z")), ast.NewAtom("A", ast.Var("z"), vars[1])))
		}
		q := randomQuery(rng, "R", domain)
		want := answers("bottom-up", sp, q, func() ([][]ast.Const, error) { return eval.Query(sp, edb, q) })
		if got := answers("stratified magic", sp, q, drop(magic.Answer, sp, q)); !sameTuples(got, want) {
			t.Fatalf("seed %d: %v over\n%s%sstratified magic answers %v, bottom-up %v", seed, q, sp, edb, got, want)
		}
		if got := answers("tabled", sp, q, tabled(sp, q)); !sameTuples(got, want) {
			t.Fatalf("seed %d: %v over\n%s%stabled answers %v, bottom-up %v", seed, q, sp, edb, got, want)
		}
	}
}
