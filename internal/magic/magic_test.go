package magic

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
)

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

func ancestor() *ast.Program {
	return parser.MustParseProgram(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Par(x, y), Anc(y, z).
	`)
}

func chainEDB(pred string, n int) *db.Database {
	d := db.New()
	for i := 0; i < n; i++ {
		d.Add(ga(pred, int64(i), int64(i+1)))
	}
	return d
}

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
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

func TestAdornmentForQuery(t *testing.T) {
	q := parser.MustParseAtom("Anc(5, y)")
	if ad := AdornmentForQuery(q); ad != "bf" {
		t.Fatalf("adornment = %s", ad)
	}
	q2 := parser.MustParseAtom("Anc(x, y)")
	if ad := AdornmentForQuery(q2); ad != "ff" {
		t.Fatalf("adornment = %s", ad)
	}
	if got := Adornment("bfb").BoundPositions(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("BoundPositions = %v", got)
	}
}

func TestRewriteShape(t *testing.T) {
	rw, err := Rewrite(ancestor(), parser.MustParseAtom("Anc(0, y)"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Program.Validate(); err != nil {
		t.Fatalf("rewritten program invalid: %v\n%s", err, rw.Program)
	}
	if rw.Seed.Pred != "m@Anc@bf" || len(rw.Seed.Args) != 1 || rw.Seed.Args[0] != ast.Int(0) {
		t.Fatalf("seed = %v", rw.Seed)
	}
	if rw.Query.Pred != "Anc@bf" {
		t.Fatalf("query = %v", rw.Query)
	}
	// Two guarded rules plus one magic rule for the recursive body atom.
	if len(rw.Program.Rules) != 3 {
		t.Fatalf("rewritten program has %d rules:\n%s", len(rw.Program.Rules), rw.Program)
	}
}

func TestMagicAnswersMatchDirectBoundQuery(t *testing.T) {
	p := ancestor()
	edb := chainEDB("Par", 20)
	query := parser.MustParseAtom("Anc(3, y)")
	magicAns, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(magicAns, directAns) {
		t.Fatalf("answers differ: magic %v, direct %v", magicAns, directAns)
	}
	if len(magicAns) != 17 {
		t.Fatalf("expected 17 ancestors of 3 in a 20-chain, got %d", len(magicAns))
	}
}

func TestMagicDerivesFewerFacts(t *testing.T) {
	// The whole point: with a bound query on a chain, magic evaluation
	// derives far fewer facts than full evaluation.
	p := ancestor()
	edb := chainEDB("Par", 60)
	query := parser.MustParseAtom("Anc(55, y)")
	_, magicStats, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	_, directStats, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if magicStats.DerivedFacts >= directStats.DerivedFacts {
		t.Fatalf("magic derived %d >= direct %d", magicStats.DerivedFacts, directStats.DerivedFacts)
	}
}

func TestMagicFreeQueryStillCorrect(t *testing.T) {
	p := ancestor()
	edb := chainEDB("Par", 10)
	query := parser.MustParseAtom("Anc(x, y)")
	magicAns, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(magicAns, directAns) {
		t.Fatalf("free-query answers differ: %d vs %d tuples", len(magicAns), len(directAns))
	}
}

func TestMagicSameGeneration(t *testing.T) {
	// The classic same-generation program, bound on the first argument.
	p := parser.MustParseProgram(`
		Sg(x, y) :- Flat(x, y).
		Sg(x, y) :- Up(x, u), Sg(u, v), Down(v, y).
	`)
	edb := db.New()
	// A small two-level hierarchy.
	for _, f := range []ast.GroundAtom{
		ga("Up", 1, 10), ga("Up", 2, 10), ga("Up", 3, 11), ga("Up", 4, 11),
		ga("Flat", 10, 11), ga("Flat", 10, 10), ga("Flat", 11, 11),
		ga("Down", 10, 1), ga("Down", 10, 2), ga("Down", 11, 3), ga("Down", 11, 4),
	} {
		edb.Add(f)
	}
	query := parser.MustParseAtom("Sg(1, y)")
	magicAns, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(magicAns, directAns) {
		t.Fatalf("same-generation answers differ: %v vs %v", magicAns, directAns)
	}
	if len(magicAns) == 0 {
		t.Fatal("no same-generation answers at all")
	}
}

func TestMagicRandomGraphsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := ancestor()
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(10)
		edb := db.New()
		for e := 0; e < 2*n; e++ {
			edb.Add(ga("Par", int64(rng.Intn(n)), int64(rng.Intn(n))))
		}
		src := int64(rng.Intn(n))
		query := ast.NewAtom("Anc", ast.IntTerm(src), ast.Var("y"))
		magicAns, _, err := Answer(p, edb, query)
		if err != nil {
			t.Fatal(err)
		}
		directAns, _, err := DirectAnswer(p, edb, query)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(magicAns, directAns) {
			t.Fatalf("trial %d: answers differ on\n%s", trial, edb)
		}
	}
}

func TestMagicSecondArgumentBound(t *testing.T) {
	p := ancestor()
	edb := chainEDB("Par", 15)
	query := parser.MustParseAtom("Anc(x, 9)")
	magicAns, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(magicAns, directAns) {
		t.Fatalf("bf/fb answers differ: %v vs %v", magicAns, directAns)
	}
	if len(magicAns) != 9 {
		t.Fatalf("expected 9 descendants-of-9 tuples, got %d", len(magicAns))
	}
}

func TestRewriteErrors(t *testing.T) {
	if _, err := Rewrite(ancestor(), parser.MustParseAtom("Par(1, y)")); err == nil {
		t.Fatal("EDB query accepted")
	}
	unstratifiable := parser.MustParseProgram(`P(x) :- A(x), !Q(x).  Q(x) :- A(x), !P(x).`)
	if _, err := Rewrite(unstratifiable, parser.MustParseAtom("P(x)")); err == nil {
		t.Fatal("unstratifiable program accepted")
	}
	if _, err := Rewrite(parser.MustParseProgram(`A(x) :- B(x).`), parser.MustParseAtom("A(1, 2)")); err == nil || !strings.Contains(err.Error(), "arity 2") || !strings.Contains(err.Error(), "arity 1") {
		t.Fatalf("arity-mismatched query: err = %v, want both arities named", err)
	}
}

func TestMutuallyRecursiveAdornment(t *testing.T) {
	// Odd/even path lengths: adornment must propagate through mutual
	// recursion without looping.
	p := parser.MustParseProgram(`
		Odd(x, y) :- E(x, y).
		Odd(x, z) :- Even(x, y), E(y, z).
		Even(x, z) :- Odd(x, y), E(y, z).
	`)
	edb := chainEDB("E", 12)
	query := parser.MustParseAtom("Odd(0, y)")
	magicAns, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(magicAns, directAns) {
		t.Fatalf("mutual recursion answers differ: %v vs %v", magicAns, directAns)
	}
	if len(magicAns) != 6 {
		t.Fatalf("expected 6 odd-distance nodes, got %d", len(magicAns))
	}
}

func TestFormatAdornment(t *testing.T) {
	rw, err := Rewrite(ancestor(), parser.MustParseAtom("Anc(0, y)"))
	if err != nil {
		t.Fatal(err)
	}
	s := FormatAdornment(rw)
	if s == "" {
		t.Fatal("empty formatting")
	}
}
