package magic

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
)

func deadProgram() *ast.Program {
	return parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x) :- Node(x), !Reach(x).
	`)
}

func deadEDB(n int, rng *rand.Rand) *db.Database {
	d := db.New()
	d.Add(ga("Src", 0))
	for e := 0; e < 2*n; e++ {
		d.Add(ga("E", int64(rng.Intn(n)), int64(rng.Intn(n))))
	}
	for i := 0; i < n; i++ {
		d.Add(ga("Node", int64(i)))
	}
	return d
}

func TestStratifiedMagicAgreesWithBottomUp(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := deadProgram()
	for trial := 0; trial < 10; trial++ {
		edb := deadEDB(4+rng.Intn(6), rng)
		for _, q := range []string{"Dead(x)", "Dead(3)"} {
			query := parser.MustParseAtom(q)
			got, _, err := Answer(p, edb, query)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := DirectAnswer(p, edb, query)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(got, want) {
				t.Fatalf("trial %d, query %s: %v vs %v on\n%s", trial, q, got, want, edb)
			}
		}
	}
}

func TestStratifiedMagicLowerStratumQuery(t *testing.T) {
	// Querying the lower stratum itself: it is magic-rewritten positively,
	// with nothing below to materialize.
	p := deadProgram()
	rng := rand.New(rand.NewSource(2))
	edb := deadEDB(8, rng)
	query := parser.MustParseAtom("Reach(x)")
	got, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(got, want) {
		t.Fatalf("lower-stratum query: %v vs %v", got, want)
	}
}

func TestStratifiedMagicPureFallback(t *testing.T) {
	p := ancestor()
	edb := chainEDB("Par", 12)
	query := parser.MustParseAtom("Anc(3, y)")
	got, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Answer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(got, want) {
		t.Fatalf("pure fallback differs: %v vs %v", got, want)
	}
}

func TestStratifiedMagicUnknownQueryPred(t *testing.T) {
	if _, _, err := Answer(deadProgram(), db.New(), parser.MustParseAtom("Zzz(x)")); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}
