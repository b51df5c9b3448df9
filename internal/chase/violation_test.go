package chase

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

// example9DB is the Example 2 output: G = transitive closure of A.
func example9DB() *db.Database {
	return eval.MustEval(workload.TransitiveClosure(),
		db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)}))
}

func TestExample9(t *testing.T) {
	d := example9DB()
	bad := parser.MustParseTGD("G(x, y) -> A(y, z), A(z, x).")
	good := parser.MustParseTGD("G(x, y) -> G(x, z), A(z, y).")

	if Satisfies(d, []ast.TGD{bad}) {
		t.Fatal("Example 9's violated tgd reported satisfied")
	}
	if !Satisfies(d, []ast.TGD{good}) {
		t.Fatal("Example 9's satisfied tgd reported violated")
	}

	// The paper pinpoints the violation at x=4, y=2.
	vs := Violations(d, []ast.TGD{bad}, 0)
	found := false
	for _, v := range vs {
		if v.Binding["x"] == ast.Int(4) && v.Binding["y"] == ast.Int(2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("violation at (4,2) not reported; got %v", vs)
	}
}

func TestViolationsLimit(t *testing.T) {
	d := example9DB()
	bad := parser.MustParseTGD("G(x, y) -> Z(x).")
	all := Violations(d, []ast.TGD{bad}, 0)
	if len(all) != d.Relation("G").Len() {
		t.Fatalf("want one violation per G fact, got %d", len(all))
	}
	two := Violations(d, []ast.TGD{bad}, 2)
	if len(two) != 2 {
		t.Fatalf("limit ignored: %d", len(two))
	}
	if !strings.Contains(two[0].String(), "violated at") {
		t.Fatalf("violation rendering: %s", two[0])
	}
}

// TestApplyTerminatingEmbeddedTgd: every employee needs SOME manager record,
// but managers need nothing further — one null per employee completes the
// pure-tgd chase, and the result satisfies the tgd.
func TestApplyTerminatingEmbeddedTgd(t *testing.T) {
	d := db.FromFacts([]ast.GroundAtom{ga("Emp", 7), ga("Emp", 8)})
	works := parser.MustParseTGD("Emp(x) -> WorksFor(x, m).")
	res, err := Apply(ast.NewProgram(), []ast.TGD{works}, d, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("embedded chase did not complete:\n%v", res.DB)
	}
	if !Satisfies(res.DB, []ast.TGD{works}) {
		t.Fatal("chase left violations")
	}
	foundNull := false
	for _, f := range res.DB.Facts() {
		if f.Pred == "WorksFor" && ast.IsNull(f.Args[1]) {
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatalf("no null manager invented:\n%v", res.DB)
	}
}

func TestSatisfiesEmptyCases(t *testing.T) {
	if !Satisfies(db.New(), nil) {
		t.Fatal("empty everything not satisfied")
	}
	tau := parser.MustParseTGD("G(x, y) -> A(x).")
	if !Satisfies(db.New(), []ast.TGD{tau}) {
		t.Fatal("empty DB violates a tgd")
	}
}
