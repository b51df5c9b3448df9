package magic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/oracle"
	"repro/internal/parser"
)

// answerWith runs the full magic pipeline with an explicit SIPS.
func answerWith(t *testing.T, p *ast.Program, edb *db.Database, query ast.Atom, strategy SIPS) ([][]ast.Const, int) {
	t.Helper()
	rw, err := RewriteWithOptions(p, query, Options{SIPS: strategy})
	if err != nil {
		t.Fatal(err)
	}
	in := edb.Clone()
	in.Add(rw.Seed)
	out, _, err := eval.Eval(rw.Program, in)
	if err != nil {
		t.Fatal(err)
	}
	var tuples [][]ast.Const
	b := ast.Binding{}
	oracle.MatchAtom(out, rw.Query, db.AllRounds, b, func() bool {
		g := rw.Query.MustGround(b)
		tp := make([]ast.Const, len(g.Args))
		copy(tp, g.Args)
		tuples = append(tuples, tp)
		return true
	})
	return tuples, out.Len() - in.Len()
}

// badAncestor writes the recursive rule with the intentional atom first,
// which starves the left-to-right SIPS of bindings.
func badAncestor() *ast.Program {
	return parser.MustParseProgram(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Anc(y, z), Par(x, y).
	`)
}

func TestSIPSAgreeOnAnswers(t *testing.T) {
	p := badAncestor()
	edb := chainEDB("Par", 30)
	query := parser.MustParseAtom("Anc(25, y)")
	l2r, _ := answerWith(t, p, edb, query, LeftToRight)
	bf, _ := answerWith(t, p, edb, query, BoundFirst)
	direct, _, err := DirectAnswer(p, edb, query)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTuples(l2r, bf) || !sameTuples(bf, direct) {
		t.Fatalf("SIPS answers differ: l2r %d, bf %d, direct %d", len(l2r), len(bf), len(direct))
	}
}

func TestSIPSMatters(t *testing.T) {
	// With the intentional atom written first, left-to-right adorns it ff
	// and derives the whole closure; bound-first binds through Par(x,y)
	// and stays goal-directed.
	p := badAncestor()
	edb := chainEDB("Par", 60)
	query := parser.MustParseAtom("Anc(55, y)")
	_, l2rDerived := answerWith(t, p, edb, query, LeftToRight)
	_, bfDerived := answerWith(t, p, edb, query, BoundFirst)
	if bfDerived >= l2rDerived {
		t.Fatalf("bound-first derived %d >= left-to-right %d", bfDerived, l2rDerived)
	}
}

func TestSIPSRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	p := badAncestor()
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		edb := db.New()
		for e := 0; e < 2*n; e++ {
			edb.Add(ga("Par", int64(rng.Intn(n)), int64(rng.Intn(n))))
		}
		query := ast.NewAtom("Anc", ast.IntTerm(int64(rng.Intn(n))), ast.Var("y"))
		l2r, _ := answerWith(t, p, edb, query, LeftToRight)
		bf, _ := answerWith(t, p, edb, query, BoundFirst)
		if !sameTuples(l2r, bf) {
			t.Fatalf("trial %d: SIPS answers differ on\n%s", trial, edb)
		}
	}
}

func TestBodyOrderLeftToRightIdentity(t *testing.T) {
	r := badAncestor().Rules[1]
	order := bodyOrder(r, map[string]bool{"x": true}, map[string]bool{"Anc": true}, LeftToRight)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
	order = bodyOrder(r, map[string]bool{"x": true}, map[string]bool{"Anc": true}, BoundFirst)
	if order[0] != 1 {
		t.Fatalf("bound-first should visit Par(x,y) first: %v", order)
	}
}

func TestQuickRewriteValidAndAnswersAgree(t *testing.T) {
	// For random programs and bound queries, the rewritten program is
	// well-formed and magic answers equal direct answers.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := parser.MustParseProgram(`
			Anc(x, y) :- Par(x, y).
			Anc(x, z) :- Par(x, y), Anc(y, z).
		`)
		n := 3 + rng.Intn(6)
		edb := db.New()
		for e := 0; e < 2*n; e++ {
			edb.Add(ga("Par", int64(rng.Intn(n)), int64(rng.Intn(n))))
		}
		query := ast.NewAtom("Anc", ast.IntTerm(int64(rng.Intn(n))), ast.Var("y"))
		rw, err := Rewrite(p, query)
		if err != nil || rw.Program.Validate() != nil {
			return false
		}
		m, _, err := Answer(p, edb, query)
		if err != nil {
			return false
		}
		d, _, err := DirectAnswer(p, edb, query)
		if err != nil {
			return false
		}
		return sameTuples(m, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
