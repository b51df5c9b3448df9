package chase

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// TestStoredVerdictAllocatesNothing pins the keyed read path: a test
// answered from the verdict store appends its rule's key — and, under a
// mask, its subprogram's — into the Checker's scratch buffers and looks both
// up without making a string, so it allocates nothing.
func TestStoredVerdictAllocatesNothing(t *testing.T) {
	p := parser.MustParseProgram(`
		Kag(x, z) :- Kaa(x, z).
		Kag(x, z) :- Kag(x, y), Kag(y, z).
		Kah(x) :- Kab(x), Kac(x).
		Kah(x) :- Kab(x).
	`)
	probe := parser.MustParseProgram(`Kag(x, z) :- Kaa(x, y), Kaa(y, z).`).Rules[0]
	ck, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	skip := []bool{false, false, true, false}
	for _, mask := range [][]bool{nil, skip} {
		if ok, err := ck.ContainsRuleMasked(ctx, probe, mask); err != nil || !ok {
			t.Fatalf("mask %v: %s ⊑ᵘ P: %v, %v", mask, probe, ok, err)
		}
	}
	reused := ck.Stats().VerdictsReused
	if n := testing.AllocsPerRun(100, func() { _, _ = ck.ContainsRule(ctx, probe) }); n != 0 {
		t.Errorf("ContainsRule answered from the store allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ck.ContainsRuleMasked(ctx, probe, skip) }); n != 0 {
		t.Errorf("ContainsRuleMasked answered from the store allocates %.0f times", n)
	}
	if ck.Stats().VerdictsReused == reused {
		t.Fatal("the measured calls were not answered from the store")
	}
}

// TestVerdictTableLookupAllocatesNothing: finding a resident program table
// by the byte key a Checker builds makes no string, whichever segment of the
// store's 2Q policy holds the table.
func TestVerdictTableLookupAllocatesNothing(t *testing.T) {
	vs := newVerdictStore()
	key := []byte("Kbg(x, z) :- Kba(x, z).\nKbh(x) :- Kbb(x), Kbc(x).\n")
	pv := vs.forProgram(key)
	if n := testing.AllocsPerRun(100, func() {
		if vs.forProgram(key) != pv {
			t.Fatal("a second lookup made a new table")
		}
	}); n != 0 {
		t.Fatalf("a verdict-table lookup allocates %.0f times", n)
	}
}

var sharesRuns int

// TestCheckerSharesOwnPlanProgram: a Checker whose plan-cache lookup missed
// keeps the program of the plan it built — already a private copy of the
// caller's — while one whose lookup hit a plan built for an alpha-renamed
// twin copies the caller's program, so its masks and its answers name the
// caller's rules.
func TestCheckerSharesOwnPlanProgram(t *testing.T) {
	// Fresh predicates on every run, so the first lookup misses whatever
	// -count.
	sharesRuns++
	head, edb := fmt.Sprintf("Kbt%d", sharesRuns), fmt.Sprintf("Kbe%d", sharesRuns)
	p := parser.MustParseProgram(fmt.Sprintf(`%s(x, y) :- %s(x, y), %s(x, w).`, head, edb, edb))
	twin := parser.MustParseProgram(fmt.Sprintf(`%s(p, q) :- %s(p, q), %s(p, r).`, head, edb, edb))
	ck, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Stats().PrepareMisses != 1 || ck.Program() != ck.prep.Program() {
		t.Fatalf("a missed lookup: %+v, program shared with the plan: %v", ck.Stats(), ck.Program() == ck.prep.Program())
	}
	if ck.Program() == p || !ck.Program().Equal(p) {
		t.Fatal("the Checker's program is not a private copy of the caller's")
	}
	ck2, err := NewChecker(twin)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Stats().PrepareHits != 1 || ck2.prep != ck.prep {
		t.Fatalf("the twin's lookup did not hit the first plan: %+v", ck2.Stats())
	}
	if ck2.Program() == ck2.prep.Program() || !ck2.Program().Equal(twin) || ck2.Program() == twin {
		t.Fatalf("the twin's Checker holds %s, want a private copy of %s", ck2.Program(), twin)
	}
}

// TestTGDSetKeyIsTheSetsText: the memo key a Checker renders into its
// scratch buffer is the set's text, each tgd as TGD.String prints it on its
// own line, whatever constants the tgds hold.
func TestTGDSetKeyIsTheSetsText(t *testing.T) {
	sym := ast.NewSymbolTable().Intern("s")
	tgds := []ast.TGD{
		parser.MustParseTGD("A(x, -3), B(x, 0) -> C(x, y), A(y, 12)."),
		ast.NewTGD(
			[]ast.Atom{ast.NewAtom("A", ast.Var("x"), ast.Con(ast.NullConst(2)))},
			[]ast.Atom{ast.NewAtom("B", ast.Con(sym), ast.Con(ast.FrozenConst(1)))}),
	}
	want := ""
	for _, tgd := range tgds {
		want += tgd.String() + "\n"
	}
	if got := string(appendTGDSetKey([]byte("stale"), tgds)[len("stale"):]); got != want {
		t.Fatalf("key %q, want %q", got, want)
	}
}
