package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// TestEndToEndPipeline exercises the whole facade on the paper's running
// example: parse, minimize under uniform equivalence, optimize under plain
// equivalence, evaluate, and answer a magic query — the full life of a
// Datalog program in this library.
func TestEndToEndPipeline(t *testing.T) {
	res, err := Parse(`
		% Example 11's P1 plus an injected redundant rule.
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
		G(u, w) :- A(u, w), A(u, v).
		A(1, 2). A(2, 3). A(3, 4).
	`)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Program

	// Fig. 2: the third rule is redundant under uniform equivalence.
	min, trace, err := MinimizeProgram(p, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.RulesRemoved() != 1 || len(min.Rules) != 2 {
		t.Fatalf("minimization: %+v\n%v", trace, min)
	}

	// Section XI: A(y,w) is redundant under plain equivalence.
	opt, removals, err := EquivOptimize(min, EquivOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(removals) != 1 {
		t.Fatalf("equivalence optimization removed %d atoms", len(removals))
	}

	// The optimized program computes the same transitive closure.
	edb := FromFacts(res.Facts)
	out1, _, err := eval.Eval(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := eval.Eval(opt, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Equal(out2) {
		t.Fatalf("optimized program differs:\n%v\nvs\n%v", out1, out2)
	}

	// Magic query through the optimized program.
	query := ast.NewAtom("G", ast.IntTerm(1), ast.Var("y"))
	magicAns, _, err := MagicAnswer(opt, edb, query, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	directAns, _, err := DirectAnswer(opt, edb, query, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(magicAns) != len(directAns) || len(magicAns) != 3 {
		t.Fatalf("magic %d vs direct %d answers", len(magicAns), len(directAns))
	}
}

func TestFacadeUniformContainment(t *testing.T) {
	p1, err := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewContainmentChecker(p1)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := ck.Contains(context.Background(), p2)
	if err != nil || v != Yes {
		t.Fatalf("containment: %v %v", v, err)
	}
	eq, err := UniformlyEquivalent(p1, p2)
	if err != nil || eq {
		t.Fatalf("equivalence: %v %v", eq, err)
	}
}

func TestFacadeChaseAndPreservation(t *testing.T) {
	p, err := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tgd := parser.MustParseTGD("G(x, z) -> A(x, w).")
	v, cex, err := PreserveCheck(p, []ast.TGD{tgd}, PreserveOptions{})
	if err != nil || v != Yes {
		t.Fatalf("preservation: %v %v %v", v, cex, err)
	}
	p2, _ := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	v, err = SATModelsContained(p, []ast.TGD{tgd}, p2, Budget{})
	if err != nil || v != Yes {
		t.Fatalf("SAT containment: %v %v", v, err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	p, err := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
		Dead(x) :- Nothing(x, y), A(y, x).
		Nothing(x, y) :- Nothing(y, x).
	`)
	if err != nil {
		t.Fatal(err)
	}

	pruned := RemoveUnfounded(p)
	if len(pruned.Rules) != 2 {
		t.Fatalf("RemoveUnfounded: %v", pruned)
	}
	reach := RemoveUnreachable(p, "G")
	if len(reach.Rules) != 2 {
		t.Fatalf("RemoveUnreachable: %v", reach)
	}
	rw, err := MagicRewrite(pruned, ast.NewAtom("G", ast.IntTerm(1), ast.Var("y")))
	if err != nil {
		t.Fatal(err)
	}
	if rw.Query.Pred != "G@bf" {
		t.Fatalf("magic rewrite: %v", rw.Query)
	}

	// Maintained view round trip.
	edb := db.New()
	edb.AddTuple("A", []Const{1, 2})
	sess, err := NewSession(pruned)
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := sess.Materialize(context.Background(), edb)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := view.Apply(context.Background(), DatabaseDelta{Assert: []GroundAtom{{Pred: "A", Args: []Const{2, 3}}}}); err != nil {
		t.Fatal(err)
	}
	if out2 := view.Output(); !out2.Has(GroundAtom{Pred: "G", Args: []Const{1, 3}}) {
		t.Fatalf("view missed G(1,3): %v", out2)
	}
}

func TestFacadeStratifiedAndDepth(t *testing.T) {
	p, err := ParseProgram(`
		Reach(x) :- Src(x).
		Unreach(x) :- Node(x), !Reach(x), !Reach(x).
	`)
	if err != nil {
		t.Fatal(err)
	}
	min, trace, err := MinimizeProgram(p, MinimizeOptions{})
	if err != nil || trace.AtomsRemoved() != 1 {
		t.Fatalf("stratified minimize: %v %v", trace, err)
	}
	_ = min

	p2, _ := ParseProgram(`
		G(x, z) :- A(x, z).
		H(x) :- G(x, y).
	`)
	tgd := parser.MustParseTGD("G(x, z) -> H(x).")
	v, _, err := PreserveCheck(p2, []ast.TGD{tgd}, PreserveOptions{Depth: 2})
	if err != nil || v != Yes {
		t.Fatalf("depth-2 preserve: %v %v", v, err)
	}
}

func TestOptimizeForQuery(t *testing.T) {
	p, err := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
		Junk(x) :- NeverDerivable(x, y).
		NeverDerivable(x, y) :- NeverDerivable(y, x).
	`)
	if err != nil {
		t.Fatal(err)
	}
	query := ast.NewAtom("G", ast.IntTerm(1), ast.Var("y"))
	res, err := OptimizeForQuery(p, query, DefaultPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if res.RulesRemoved != 2 {
		t.Fatalf("pruned %d rules, want 2", res.RulesRemoved)
	}
	if res.AtomsRemoved != 1 { // the Example 11 guard
		t.Fatalf("removed %d atoms, want 1", res.AtomsRemoved)
	}
	if res.Rewritten == nil {
		t.Fatal("magic rewriting missing")
	}

	// The optimized pipeline answers the query identically to direct eval.
	edb := db.New()
	for i := int64(1); i <= 6; i++ {
		edb.AddTuple("A", []Const{ast.Int(i), ast.Int(i + 1)})
	}
	in := edb.Clone()
	in.Add(res.Rewritten.Seed)
	out, _, err := eval.Eval(res.Program, in)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := DirectAnswer(p, edb, query, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Answers are the adorned facts matching the query PATTERN — the
	// adorned relation also tables subquery answers (e.g. G@bf(2, ·)).
	count := 0
	for _, f := range out.Facts() {
		if f.Pred == res.Rewritten.Query.Pred && f.Args[0] == ast.Int(1) {
			count++
		}
	}
	if count != len(direct) {
		t.Fatalf("pipeline answers %d, direct %d", count, len(direct))
	}

	// Magic off: plain optimized program comes back.
	opts := DefaultPipeline()
	opts.Magic = false
	res2, err := OptimizeForQuery(p, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rewritten != nil || len(res2.Program.Rules) != 2 {
		t.Fatalf("non-magic pipeline: %v", res2.Program)
	}
	// Zero options run no pass: a clone of the program comes back.
	res3, err := OptimizeForQuery(p, query, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Rewritten != nil || res3.Program == p || res3.Program.String() != p.String() || res3.RulesRemoved != 0 || res3.AtomsRemoved != 0 {
		t.Fatalf("zero-option pipeline: %+v\n%v", res3, res3.Program)
	}
}

// TestOptimizeForQueryStratified: the pipeline takes a program with
// stratified negation. Pruning, Fig. 2 and the magic rewrite run on it, the
// Section XI pass is skipped, and the rewritten program evaluated with its
// seed answers like direct evaluation on random EDBs.
func TestOptimizeForQueryStratified(t *testing.T) {
	p, err := ParseProgram(`
		Reach(x, y) :- E(x, y).
		Reach(x, z) :- Reach(x, y), E(y, z), E(y, w).
		Blocked(x) :- Bad(x).
		Safe(x, y) :- Reach(x, y), !Blocked(y).
		Junk(x) :- Nope(x, y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, query := range []Atom{
		ast.NewAtom("Safe", ast.IntTerm(1), ast.Var("y")),
		ast.NewAtom("Safe", ast.Var("x"), ast.Var("y")),
	} {
		res, err := OptimizeForQuery(p, query, DefaultPipeline())
		if err != nil {
			t.Fatalf("%v: %v", query, err)
		}
		if res.RulesRemoved != 1 || res.AtomsRemoved != 1 || res.Rewritten == nil {
			t.Fatalf("%v: removed %d rules, %d atoms; rewritten %v", query, res.RulesRemoved, res.AtomsRemoved, res.Rewritten != nil)
		}
		for trial := 0; trial < 24; trial++ {
			edb := db.New()
			for i := 0; i < 10; i++ {
				edb.AddTuple("E", []Const{ast.Int(rng.Int63n(6)), ast.Int(rng.Int63n(6))})
			}
			for i := 0; i < 2; i++ {
				edb.AddTuple("Bad", []Const{ast.Int(rng.Int63n(6))})
			}
			in := edb.Clone()
			in.Add(res.Rewritten.Seed)
			out, _, err := eval.Eval(res.Program, in)
			if err != nil {
				t.Fatal(err)
			}
			direct, _, err := DirectAnswer(p, edb, query, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := answerKey(db.Select(out, res.Rewritten.Query)), answerKey(direct); got != want {
				t.Fatalf("%v trial %d: pipeline answers %s, direct %s\nEDB %v", query, trial, got, want, edb)
			}
		}
	}
}

// answerKey renders answer tuples as one sorted string.
func answerKey(rows [][]Const) string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = fmt.Sprint(row)
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func TestFacadeStratifiedMagic(t *testing.T) {
	res, err := Parse(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x) :- Node(x), !Reach(x).
		Src(1). E(1, 2). Node(2). Node(9).
	`)
	if err != nil {
		t.Fatal(err)
	}
	edb := FromFacts(res.Facts)
	query := ast.NewAtom("Dead", ast.Var("x"))
	got, _, err := MagicAnswer(res.Program, edb, query, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != ast.Int(9) {
		t.Fatalf("stratified magic answers: %v", got)
	}
}
