package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
)

func TestParseExample1(t *testing.T) {
	res, err := Parse(`
		% Example 1: transitive closure.
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Program
	if len(p.Rules) != 2 {
		t.Fatalf("parsed %d rules", len(p.Rules))
	}
	if got := p.Rules[0].String(); got != "G(x, z) :- A(x, z)." {
		t.Fatalf("rule 0 = %q", got)
	}
	if got := p.Rules[1].String(); got != "G(x, z) :- G(x, y), G(y, z)." {
		t.Fatalf("rule 1 = %q", got)
	}
}

func TestParseFacts(t *testing.T) {
	res, err := Parse(`
		A(1, 2). A(1, 4).
		A(4, 1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facts) != 3 {
		t.Fatalf("facts = %v", res.Facts)
	}
	want := ast.NewGroundAtom("A", ast.Int(1), ast.Int(4))
	if !res.Facts[1].Equal(want) {
		t.Fatalf("fact = %v", res.Facts[1])
	}
}

func TestParseTgd(t *testing.T) {
	tgd, err := ParseTGD("G(x, z) -> A(x, w).")
	if err != nil {
		t.Fatal(err)
	}
	if got := tgd.String(); got != "G(x, z) -> A(x, w)." {
		t.Fatalf("tgd = %q", got)
	}
	multi, err := ParseTGD("G(x, y), G(y, z) -> A(y, w).")
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Lhs) != 2 || len(multi.Rhs) != 1 {
		t.Fatalf("tgd = %v", multi)
	}
}

func TestParseMixedSource(t *testing.T) {
	res, err := Parse(`
		G(x, z) :- A(x, z).        // init rule
		G(x, z) :- G(x, y), G(y, z), A(y, w).
		G(x, z) -> A(x, w).        % a tgd
		A(1, 2).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 2 || len(res.TGDs) != 1 || len(res.Facts) != 1 {
		t.Fatalf("rules=%d tgds=%d facts=%d", len(res.Program.Rules), len(res.TGDs), len(res.Facts))
	}
}

func TestParseConstantsInRules(t *testing.T) {
	// Example 4's P2 uses the constant 3: G(x,z) :- A(x,3).
	p, err := ParseProgram("G(x, z) :- A(x, 3), A(z, z).")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Rules[0].String(); got != "G(x, z) :- A(x, 3), A(z, z)." {
		t.Fatalf("rule = %q", got)
	}
	// Negative integers parse as constants.
	p2, err := ParseProgram("G(x, x) :- A(x, -7).")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Rules[0].Body[0].Args[1].Val != ast.Int(-7) {
		t.Fatalf("negative constant lost: %v", p2.Rules[0])
	}
}

func TestParseSymbolicConstants(t *testing.T) {
	res, err := Parse(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Anc(x, y), Par(y, z).
		Par("ann", "bob").
		Par('bob', 'carol').
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facts) != 2 {
		t.Fatalf("facts = %v", res.Facts)
	}
	ann, ok := res.Symbols.Lookup("ann")
	if !ok {
		t.Fatal("ann not interned")
	}
	if res.Facts[0].Args[0] != ann {
		t.Fatalf("fact args = %v", res.Facts[0])
	}
	if got := res.Facts[0].Format(res.Symbols); got != `Par("ann", "bob")` {
		t.Fatalf("formatted fact = %q", got)
	}
}

func TestParseNegation(t *testing.T) {
	p, err := ParseProgram("Unreach(x) :- Node(x), !Reach(x).")
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if len(r.Body) != 1 || len(r.NegBody) != 1 || r.NegBody[0].Pred != "Reach" {
		t.Fatalf("rule = %v", r)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing period", "G(x, z) :- A(x, z)", "expected"},
		{"variable fact", "A(x, 2).", "has variables"},
		{"lowercase predicate", "g(x) :- A(x).", "upper-case"},
		{"uppercase variable", "G(X) :- A(X).", "upper-case"},
		{"range restriction", "G(x, q) :- A(x, y).", "range-restricted"},
		{"bad token", "G(x) :- A(x) & B(x).", "unexpected character"},
		{"unterminated string", `A("abc).`, "unterminated"},
		{"bad colon", "G(x) : A(x).", "expected ':-'"},
		{"stray arrow rhs", "G(x) -> .", "expected identifier"},
		{"arity clash", "G(x) :- A(x).\nG(x, y) :- A(x), A(y).", "arities"},
		{"empty atom", "G() :- A(x).", "term"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}

func TestParseProgramRejectsFactsAndTgds(t *testing.T) {
	if _, err := ParseProgram("A(1, 2)."); err == nil {
		t.Fatal("fact accepted by ParseProgram")
	}
	if _, err := ParseProgram("G(x, y) -> A(x, w)."); err == nil {
		t.Fatal("tgd accepted by ParseProgram")
	}
}

func TestParseAtom(t *testing.T) {
	a, err := ParseAtom("G(x, 3, y)")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.String(); got != "G(x, 3, y)" {
		t.Fatalf("atom = %q", got)
	}
	if _, err := ParseAtom("G(x) extra"); err == nil {
		t.Fatal("trailing junk accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		"G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n",
		"G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).\n",
		"G(x, z) :- A(x, z), C(z).\nG(x, z) :- A(x, y), G(y, z), G(y, w), C(w).\n",
	}
	for _, src := range srcs {
		p := MustParseProgram(src)
		if got := p.String(); got != src {
			t.Errorf("round trip: got %q want %q", got, src)
		}
		// Idempotence: parsing the printed form prints the same.
		q := MustParseProgram(p.String())
		if !p.Equal(q) {
			t.Errorf("reparse of %q differs", src)
		}
	}
}

func TestLineColumnInErrors(t *testing.T) {
	_, err := Parse("G(x, z) :- A(x, z).\nG(x z) :- A(x, z).")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error %q lacks line info", err)
	}
}

func TestSharedSymbolTable(t *testing.T) {
	syms := ast.NewSymbolTable()
	r1, err := ParseWithSymbols(`Par("ann", "bob").`, syms)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ParseWithSymbols(`Par("bob", "carol").`, syms)
	if err != nil {
		t.Fatal(err)
	}
	bob1 := r1.Facts[0].Args[1]
	bob2 := r2.Facts[0].Args[0]
	if bob1 != bob2 {
		t.Fatal("shared table interned bob differently")
	}
}

func TestParseDatabase(t *testing.T) {
	res, err := Parse(`A(1, 2). Par("ann", "bob").`)
	if err != nil {
		t.Fatal(err)
	}
	d, syms := db.FromFacts(res.Facts), res.Symbols
	if d.Len() != 2 {
		t.Fatalf("database: %v", d)
	}
	ann, ok := syms.Lookup("ann")
	if !ok {
		t.Fatal("ann not interned")
	}
	if !d.Has(ast.GroundAtom{Pred: "Par", Args: []ast.Const{ann, syms.Intern("bob")}}) {
		t.Fatalf("fact missing: %v", d)
	}
	// Database text round-trips through the parser.
	res2, err := ParseWithSymbols(d.Format(syms), syms)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(db.FromFacts(res2.Facts)) || len(res2.Program.Rules)+len(res2.TGDs) != 0 {
		t.Fatal("database text round trip failed")
	}
}

func TestMustHelpersPanic(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("MustParseProgram", func() { MustParseProgram("A(1).") })
	assertPanics("MustParseTGD", func() { MustParseTGD("G(x) :- A(x).") })
	assertPanics("MustParseAtom", func() { MustParseAtom("not an atom") })
}

func TestMustHelpersSucceed(t *testing.T) {
	if MustParseTGD("G(x) -> A(x).").IsFull() != true {
		t.Fatal("MustParseTGD wrong")
	}
	if MustParseAtom("G(x)").Pred != "G" {
		t.Fatal("MustParseAtom wrong")
	}
}

func TestAnonymousVariables(t *testing.T) {
	p, err := ParseProgram("G(x) :- A(x, _), B(_, _).")
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	// Three occurrences of _ become three DISTINCT variables.
	vars := map[string]bool{}
	for _, a := range r.Body {
		for _, tm := range a.Args {
			if tm.IsVar {
				vars[tm.Name] = true
			}
		}
	}
	if len(vars) != 4 { // x plus three fresh
		t.Fatalf("vars = %v", vars)
	}
	// An anonymous variable in the head has no binding: rejected by range
	// restriction (each _ is fresh, so it cannot appear in the body).
	if _, err := ParseProgram("G(_) :- A(x)."); err == nil {
		t.Fatal("anonymous head variable accepted")
	}
}

// TestParseIntegerOutOfRange: an integer outside the plain-integer range of
// ast.Int is a positioned parse error, not a panic (FuzzParse found the
// panic; its input is kept under testdata/fuzz).
func TestParseIntegerOutOfRange(t *testing.T) {
	for _, src := range []string{"A(1099511627776).", "G(x) :- A(x, -1099511627776).", "A(1099700000000"} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%q: %v, want an out-of-range error", src, err)
		}
	}
	if _, err := Parse("A(1099511627775). A(-1099511627775)."); err != nil {
		t.Fatalf("the largest plain integers: %v", err)
	}
}
