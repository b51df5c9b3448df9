package parser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
)

// parseSeeds are FuzzParse's seed inputs; TestParseMatchesOracle holds each
// to the oracle too.
var parseSeeds = []string{
	"G(x, z) :- A(x, z).",
	"G(x, z) :- G(x, y), G(y, z).",
	"A(1, 2). A(-3, 4).",
	"G(x, z) -> A(x, w).",
	"P(x) :- A(x), !B(x).",
	`Par("ann", 'bob').`,
	"% comment\nG(x) :- A(x). // trailing",
	"G(x",
	":-",
	"G(x) :- .",
	"G(x,) :- A(x).",
	"G(x) :- A(x)",
	"\"unterminated",
	"G(x, 99999999999999999999999) :- A(x).",
	"G(日本語) :- A(日本語).",
	"G(1, y). Bogus(",
}

// malformedSources reach every error of the lexer and the parser, and every
// validation error, each on ASCII and on multi-byte surroundings.
var malformedSources = []string{
	"", " ", "\t\n", "%", "//", "/", "/ /", "G(x) :- A(x). /",
	"G(x) : A(x).", "G(x) :", "G(x) :日", "G(x) :\x00", "G(x) :\xff", "G(x) :-",
	"G(x) -", "G(x) -x", "G(x) -日", "A(-)", "A(- 1).", "A(-1).", "A(--1).",
	"A(1٣).", "A(٣).", "A(-٣).", "A(12x).", "A(0x10).", "A(007).",
	`A("abc).`, `A("abc`, "A('a\nb').", `A("").`, `A('').`, `A("a'b", 'a"b').`,
	`A("ü\xffé").`, "A(\"日本\", 'x').", `G(x) :- A(x, "").`,
	"A(1) B(2).", "A(1),", "A(1) ->", "A(1) -> .", "A(x) -> B(x)", "A(x) -> B(x),",
	"A(a, b) -> B C", "G(a, b) :- B C", // C's insertion regrows the table under B
	"G(x) :- A(x) & B(x).", "G(x) :- A(x) B(x).", "G(x) :- !.", "G(x) :- !!A(x).",
	"g(x) :- A(x).", "G(X) :- A(X).", "G(x) :- a(x).", "G(Ü) :- A(Ü).", "ü(x).",
	"G() :- A(x).", "G(x,,y) :- A(x).", "G(x", "G x", "(x)", ")", ",", ".",
	"G(x) :- A(x).\nG(x, y) :- A(x), A(y).", "G(x) :- A(x), A(x, y).",
	"G(x) :- A(x), !A(x, x).", "G(x) :- !B(x), B(x, y).", "G(x) :- B(x), !B(x, y), B(x, y, z).",
	"G(x, q) :- A(x, y).", "G(x) :- !A(x).", "G(x) :- A(x), !B(y).",
	"G(x, y) :- A(x).\nG(x) :- A(x).", "G(x, y) :- A(x).\nH(x) :- A(x, y), A(x).",
	"G(x) :- A(x).\nA(1, 2).\nG(x, y) -> A(x, y, w).\nH(x) :- G(x, y).",
	"G(x) -> A(x).\nG(x, y) -> A(x).", "A(1). A(1, 2).", "G(1) :- A(x).", "G(_) :- A(x).",
	"G(x) :- A(x, _), B(_, _).", "G(x) :- A(x, _a), B(_1, x').", "G(x') :- A(x').",
	"A(1099511627776).", "A(-1099511627776).", "A(1099511627775). A(-1099511627775).",
	"A(\x00).", "A(\xff).", "\xef\xbb\xbfA(1).", "A(1). \u0085B(2).", "A(1). B(2).",
	" G(x) :- A(x).", "A(1).\r\nB(2).\r\n", "A(1).\vB(2).\fC(3).",
	"G(ß) :- A(ß), ß(x).", "Ǆ(x) :- A(x).", "ǅ(x) :- A(x).", "Ⅻ(x) :- A(x).",
	"G(x) :- A(x). % ü\n% 日本\nH(x) :- G(x). // é\n",
}

// renderResult renders everything a parse returns — the rules with every
// atom's position, the facts with theirs, the tgds, the symbol table's
// names in order — or the error text.
func renderResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	atoms := func(as []ast.Atom) {
		for _, a := range as {
			fmt.Fprintf(&sb, " %s@%s", a, a.Pos)
		}
	}
	for _, r := range res.Program.Rules {
		fmt.Fprintf(&sb, "rule %s @%s:", r, r.Pos)
		atoms([]ast.Atom{r.Head})
		atoms(r.Body)
		sb.WriteString(" !")
		atoms(r.NegBody)
		sb.WriteByte('\n')
	}
	for i, g := range res.Facts {
		fmt.Fprintf(&sb, "fact %s @%s\n", g, res.FactPos[i])
	}
	for _, t := range res.TGDs {
		fmt.Fprintf(&sb, "tgd %s:", t)
		atoms(t.Lhs)
		sb.WriteString(" ->")
		atoms(t.Rhs)
		sb.WriteByte('\n')
	}
	sb.WriteString(renderSymbols(res.Symbols))
	return sb.String()
}

// renderSymbols lists a symbol table's names in interning order.
func renderSymbols(syms *ast.SymbolTable) string {
	base := ast.NewSymbolTable().Intern("")
	var sb strings.Builder
	sb.WriteString("symbols:")
	for c := base; ; c++ {
		name, ok := syms.Name(c)
		if !ok {
			return sb.String()
		}
		fmt.Fprintf(&sb, " %q", name)
	}
}

// seededSymbols is a table that already holds two of the names the sources
// above quote, so interning into a shared table is compared too.
func seededSymbols() *ast.SymbolTable {
	syms := ast.NewSymbolTable()
	syms.Intern("bob")
	syms.Intern("a")
	return syms
}

// diffOracle parses src through every entry point of the package and of the
// oracle and describes the first difference; "" when there is none.
func diffOracle(src string) string {
	type pair struct{ name, got, want string }
	var pairs []pair
	add := func(name, got, want string) { pairs = append(pairs, pair{name, got, want}) }

	res, err := ParseWithSymbols(src, ast.NewSymbolTable())
	ores, oerr := oracleParseWithSymbols(src, ast.NewSymbolTable())
	add("ParseWithSymbols", renderResult(res, err), renderResult(ores, oerr))
	res, err = ParseWithSymbols(src, seededSymbols())
	ores, oerr = oracleParseWithSymbols(src, seededSymbols())
	add("ParseWithSymbols(seeded)", renderResult(res, err), renderResult(ores, oerr))
	res, err = ParseLoose(src)
	ores, oerr = oracleParseLoose(src)
	add("ParseLoose", renderResult(res, err), renderResult(ores, oerr))

	p, err := ParseProgram(src)
	op, oerr := oracleParseProgram(src)
	add("ParseProgram", renderProgram(p, err), renderProgram(op, oerr))
	t, err := ParseTGD(src)
	ot, oerr := oracleParseTGD(src)
	add("ParseTGD", renderTGD(t, err), renderTGD(ot, oerr))
	add("ParseAtomWithSymbols", renderAtom(src, ParseAtomWithSymbols), renderAtom(src, oracleParseAtomWithSymbols))
	a, err := ParseAtom(src)
	oa, oerr := oracleParseAtom(src)
	add("ParseAtom", fmt.Sprint(a, a.Pos, err), fmt.Sprint(oa, oa.Pos, oerr))

	for _, pr := range pairs {
		if pr.got != pr.want {
			return fmt.Sprintf("%s(%q):\n got %q\nwant %q", pr.name, src, pr.got, pr.want)
		}
	}
	return ""
}

func renderProgram(p *ast.Program, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return p.String()
}

func renderTGD(t ast.TGD, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return t.String()
}

// renderAtom parses src as one atom into a seeded table and renders the
// atom, its position and the table, or the error text.
func renderAtom(src string, parse func(string, *ast.SymbolTable) (ast.Atom, error)) string {
	syms := seededSymbols()
	a, err := parse(src, syms)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%s@%s args=%d %s", a, a.Pos, len(a.Args), renderSymbols(syms))
}

// DiffOracle, ParseSeeds and MalformedSources let the package's external
// tests, which can import internal/workload, hold random programs to the
// oracle.
var (
	DiffOracle       = diffOracle
	ParseSeeds       = parseSeeds
	MalformedSources = malformedSources
)

// FuzzParseAtom holds ParseAtomWithSymbols to the oracle's on arbitrary
// input: the same atom, position and interned constants, or the same error.
func FuzzParseAtom(f *testing.F) {
	for _, seed := range []string{
		"CanRead(17, d)", "G(x, 'a', \"bob\")", "G(x) extra", "G(x).", "G(日本, \"ñ\")",
		"G(_, _)", "G(-3, 1099511627776)", "g(x)", "G(x", "G(x) :- A(x).", "",
		"G(1, y). Bogus(", "G(x). G(y).", "G(x). \"open", "G(x). % comment",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := renderAtom(src, ParseAtomWithSymbols), renderAtom(src, oracleParseAtomWithSymbols); got != want {
			t.Fatalf("ParseAtomWithSymbols(%q):\n got %q\nwant %q", src, got, want)
		}
	})
}
