package core

import (
	"context"
	"testing"

	"repro/internal/ast"
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
	out1, _, err := Eval(p, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := Eval(opt, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out1.Equal(out2) {
		t.Fatalf("optimized program differs:\n%v\nvs\n%v", out1, out2)
	}

	// Magic query through the optimized program.
	q, err := ParseTGD("G(x, z) -> A(x, w).")
	if err != nil {
		t.Fatal(err)
	}
	_ = q
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
	ok, _, err := UniformlyContains(p1, p2)
	if err != nil || !ok {
		t.Fatalf("containment: %v %v", ok, err)
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
	tgd, err := ParseTGD("G(x, z) -> A(x, w).")
	if err != nil {
		t.Fatal(err)
	}
	v, cex, err := PreserveCheck(p, []TGD{tgd}, PreserveOptions{})
	if err != nil || v != Yes {
		t.Fatalf("preservation: %v %v %v", v, cex, err)
	}
	v, cex, err = PreserveCheckPreliminary(p, []TGD{tgd}, PreserveOptions{})
	if err != nil || v != Yes {
		t.Fatalf("preliminary: %v %v %v", v, cex, err)
	}
	p2, _ := ParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	v, err = SATModelsContained(p, []TGD{tgd}, p2, Budget{})
	if err != nil || v != Yes {
		t.Fatalf("SAT containment: %v %v", v, err)
	}
}

func TestFacadeEvalHelpers(t *testing.T) {
	res, err := Parse(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		A(1, 2). A(2, 3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	edb := FromFacts(res.Facts)
	prelim := PreliminaryDB(res.Program, edb)
	if prelim.Len() != 4 {
		t.Fatalf("preliminary DB: %v", prelim)
	}
	pn := NonRecursive(res.Program, prelim)
	if !pn.Has(ast.NewGroundAtom("G", ast.Int(1), ast.Int(3))) {
		t.Fatalf("Pⁿ: %v", pn)
	}
	out, _, err := Eval(res.Program, edb, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsModel(res.Program, out) {
		t.Fatal("output not a model")
	}
	rw, err := MagicRewrite(res.Program, ast.NewAtom("G", ast.IntTerm(1), ast.Var("y")))
	if err != nil {
		t.Fatal(err)
	}
	if rw.Query.Pred != "G@bf" {
		t.Fatalf("magic rewrite: %v", rw.Query)
	}
	db2 := NewDatabase()
	if db2.Len() != 0 {
		t.Fatal("NewDatabase not empty")
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
	unf, err := UnfoldRuleAtom(pruned, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(unf.Rules) != 3 {
		t.Fatalf("UnfoldRuleAtom: %v", unf)
	}

	res, err := UnfoldToDepth(pruned, 2, 0)
	if err != nil || !res.Complete {
		t.Fatalf("UnfoldToDepth: %v %v", res, err)
	}

	ok, cert, deriv, err := UniformlyContainsRuleCertified(pruned, unf.Rules[1])
	if err != nil || !ok || cert == nil || deriv == nil {
		t.Fatalf("certified containment: %v %v", ok, err)
	}

	// Maintained view + prover round trip.
	edb := NewDatabase()
	edb.AddTuple("A", []Const{1, 2})
	sess, err := NewSession(pruned)
	if err != nil {
		t.Fatal(err)
	}
	view, _, err := sess.Materialize(context.Background(), edb, MaintainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := view.Apply(context.Background(), DatabaseDelta{Assert: []GroundAtom{{Pred: "A", Args: []Const{2, 3}}}}); err != nil {
		t.Fatal(err)
	}
	if out2 := view.Output(); !out2.Has(GroundAtom{Pred: "G", Args: []Const{1, 3}}) {
		t.Fatalf("view missed G(1,3): %v", out2)
	}
	prover, err := NewProver(pruned, edb)
	if err != nil {
		t.Fatal(err)
	}
	if _, okp := prover.Explain(GroundAtom{Pred: "G", Args: []Const{1, 2}}); !okp {
		t.Fatal("prover failed")
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
	tgd, _ := ParseTGD("G(x, z) -> H(x).")
	v, _, err := PreserveCheckPreliminary(p2, []TGD{tgd}, PreserveOptions{Depth: 2})
	if err != nil || v != Yes {
		t.Fatalf("depth-2 prelim: %v %v", v, err)
	}
	v, _, err = PreserveCheck(p2, []TGD{tgd}, PreserveOptions{Depth: 2})
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
	edb := NewDatabase()
	for i := int64(1); i <= 6; i++ {
		edb.AddTuple("A", []Const{ast.Int(i), ast.Int(i + 1)})
	}
	in := edb.Clone()
	in.Add(res.Rewritten.Seed)
	out, _, err := Eval(res.Program, in, EvalOptions{})
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
