package parser

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ast"
)

// genSource writes a random source of rules (some with negated atoms),
// facts and tgds over a few multi-byte and ASCII names. It need not be
// valid Datalog: the tests below parse it with ParseLoose.
func genSource(rng *rand.Rand) string {
	preds := []string{"A", "Bé", "Gx", "Ä"}
	vars := []string{"x", "y", "z", "ü", "日本"}
	atom := func(ground bool) string {
		n := 1 + rng.Intn(3)
		args := make([]string, n)
		for i := range args {
			switch {
			case ground || rng.Intn(4) == 0:
				args[i] = fmt.Sprint(rng.Intn(5) - 1)
			case rng.Intn(8) == 0:
				args[i] = `"s"`
			default:
				args[i] = vars[rng.Intn(len(vars))]
			}
		}
		return preds[rng.Intn(len(preds))] + "(" + strings.Join(args, ", ") + ")"
	}
	var sb strings.Builder
	for i := rng.Intn(6); i >= 0; i-- {
		switch rng.Intn(4) {
		case 0:
			sb.WriteString(atom(true) + ".\n")
		case 1:
			sb.WriteString(atom(false) + ", " + atom(false) + " -> " + atom(false) + ".\n")
		default:
			sb.WriteString(atom(false) + " :- " + atom(false))
			for j := rng.Intn(4); j > 0; j-- {
				sb.WriteString(",\t")
				if rng.Intn(3) == 0 {
					sb.WriteString("!")
				}
				sb.WriteString(atom(false))
			}
			sb.WriteString(".\n")
		}
	}
	return sb.String()
}

// atomSlices lists every atom slice a parse result carves from its arena —
// each rule's Body and NegBody, each tgd's Lhs and Rhs — and every atom,
// heads included, in a fixed order; first[k] is the index in atoms of
// slices[k]'s first element.
func atomSlices(res *Result) (slices []*[]ast.Atom, first []int, atoms []*ast.Atom) {
	add := func(s *[]ast.Atom) {
		if len(*s) == 0 {
			return
		}
		slices, first = append(slices, s), append(first, len(atoms))
		for i := range *s {
			atoms = append(atoms, &(*s)[i])
		}
	}
	for i := range res.Program.Rules {
		r := &res.Program.Rules[i]
		atoms = append(atoms, &r.Head)
		add(&r.Body)
		add(&r.NegBody)
	}
	for i := range res.TGDs {
		add(&res.TGDs[i].Lhs)
		add(&res.TGDs[i].Rhs)
	}
	return slices, first, atoms
}

func atomStrings(atoms []*ast.Atom) []string {
	out := make([]string, len(atoms))
	for i, a := range atoms {
		out[i] = a.String()
	}
	return out
}

// TestQuickParseResultNoAliasing: appending to, or writing an element of,
// any Body, NegBody, Lhs, Rhs or Args slice of a parse result changes
// nothing but the element written — the slices are carved capped from the
// parser's arenas.
func TestQuickParseResultNoAliasing(t *testing.T) {
	junk := ast.NewAtom("JUNK", ast.IntTerm(9), ast.IntTerm(9), ast.IntTerm(9))
	f := func(seed int64) bool {
		src := genSource(rand.New(rand.NewSource(seed)))
		parse := func() (*Result, []*[]ast.Atom, []int, []*ast.Atom) {
			res, err := ParseLoose(src)
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			s, first, atoms := atomSlices(res)
			return res, s, first, atoms
		}
		_, slices, _, atoms := parse()
		want := atomStrings(atoms)
		check := func(atoms []*ast.Atom, written int, what string) {
			t.Helper()
			for i, got := range atomStrings(atoms) {
				if i != written && got != want[i] {
					t.Fatalf("%s: atom %d became %s, was %s\n%s", what, i, got, want[i], src)
				}
			}
		}
		for k := range slices {
			_, s, first, atoms := parse()
			_ = append(*s[k], junk, junk)
			check(atoms, -1, "append to an atom slice")
			(*s[k])[0] = junk
			check(atoms, first[k], "write to an atom slice")
		}
		for i := range atoms {
			_, _, _, atoms := parse()
			_ = append(atoms[i].Args, ast.Var("junk"), ast.Var("junk"))
			check(atoms, -1, "append to an atom's arguments")
			atoms[i].Args[0] = ast.Var("junk")
			check(atoms, i, "write to an atom's arguments")
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickParseResultOwnsItsNames: no predicate or variable name of a
// parse result points into the source's bytes, so holding a parsed program
// (or a relation keyed by one of its predicates) does not hold the source.
func TestQuickParseResultOwnsItsNames(t *testing.T) {
	f := func(seed int64) bool {
		src := genSource(rand.New(rand.NewSource(seed)))
		res, err := ParseLoose(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		inSrc := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= lo && p < hi
		}
		_, _, atoms := atomSlices(res)
		for _, a := range atoms {
			if inSrc(a.Pred) {
				t.Fatalf("predicate %s points into the source", a.Pred)
			}
			for _, term := range a.Args {
				if term.IsVar && inSrc(term.Name) {
					t.Fatalf("variable %s of %s points into the source", term.Name, a)
				}
			}
		}
		for _, g := range res.Facts {
			if inSrc(g.Pred) {
				t.Fatalf("fact predicate %s points into the source", g.Pred)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// positions renders a parse result with the position of every rule, atom
// and fact, or the error text.
func positions(src string) string {
	res, err := ParseLoose(src)
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, r := range res.Program.Rules {
		fmt.Fprintf(&sb, "rule %s @%s:", r.Format(res.Symbols), r.Pos)
		for _, atoms := range r.Atoms() {
			for _, a := range atoms {
				fmt.Fprintf(&sb, " %s@%s", a.Pred, a.Pos)
			}
		}
		sb.WriteByte('\n')
	}
	for i, g := range res.Facts {
		fmt.Fprintf(&sb, "fact %s @%s\n", g.Format(res.Symbols), res.FactPos[i])
	}
	for _, tgd := range res.TGDs {
		fmt.Fprintf(&sb, "tgd %s:", tgd)
		for _, a := range append(append([]ast.Atom(nil), tgd.Lhs...), tgd.Rhs...) {
			fmt.Fprintf(&sb, " %s@%s", a.Pred, a.Pos)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestMultiBytePositions pins every position and error text on multi-byte
// and tab-indented sources, byte for byte: columns count runes, a tab is one
// column.
func TestMultiBytePositions(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"G(日本語) :- A(日本語).",
			"rule G(日本語) :- A(日本語). @1:1: G@1:1 A@1:11\n"},
		{"\tG(x, z) :-\n\t\tA(x, y),\tG(y, z).\n",
			"rule G(x, z) :- A(x, y), G(y, z). @1:2: G@1:2 A@2:3 G@2:12\n"},
		{"Ä(ü) :- Bé(ü), !Çé(ü).\n\tÄ(1). Ä(\"ñ\").",
			"rule Ä(ü) :- Bé(ü), !Çé(ü). @1:1: Ä@1:1 Bé@1:9 Çé@1:17\nfact Ä(1) @2:2\nfact Ä(\"ñ\") @2:8\n"},
		{"% ünïcödé\n\t日(x) :- A(x).",
			"error: 2:2: predicate name \"日\" must begin with an upper-case letter"},
		{"G(日本語 :- A(x).",
			"error: 1:7: expected ')', found ':-' \":-\""},
		{"G(x) :- A(x),\t€(x).",
			"error: 1:15: unexpected character '€'"},
		{"Ñ(ü, y) -> Ö(y, ß).\n\tÑ(ü,\tz), Ö(z, z) -> Ñ(z, w).",
			"tgd Ñ(ü, y) -> Ö(y, ß).: Ñ@1:1 Ö@1:12\ntgd Ñ(ü, z), Ö(z, z) -> Ñ(z, w).: Ñ@2:2 Ö@2:11 Ñ@2:22\n"},
		{"G(x) :- A(x, 'ü\nx').",
			"error: 1:14: newline in string literal"},
		{"G(ü) :- A(ü), B(-日).",
			"error: 1:17: expected '->' or digit after '-'"},
	} {
		if got := positions(tc.src); got != tc.want {
			t.Errorf("%q:\n got %q\nwant %q", tc.src, got, tc.want)
		}
	}
}

// TestParseAllocations pins the allocation count of parsing a fixed 8-rule
// program, and of the one-atom parse a query or an /eval request makes: the
// lexer interns each identifier once into small blocks of names, and the
// atoms and terms of the result come from two arenas sized once.
func TestParseAllocations(t *testing.T) {
	const want = 11
	if n := testing.AllocsPerRun(50, func() { _, _ = Parse(eightRules) }); n > want {
		t.Fatalf("Parse of an 8-rule program allocates %.0f times, want at most %d", n, want)
	}
	const wantAtom = 6
	if n := testing.AllocsPerRun(50, func() { _, _ = ParseAtom("CanRead(17, d)") }); n > wantAtom {
		t.Fatalf("ParseAtom allocates %.0f times, want at most %d", n, wantAtom)
	}
}

// TestParseRetainsNoFactArena: a program parsed beside 10,000 facts keeps
// nothing in proportion to them, the rule before the facts or after them.
// The facts give their terms back and reserve no atoms; what the rule keeps
// is its own atoms and terms and at most the capped arenas.
func TestParseRetainsNoFactArena(t *testing.T) {
	rule := "G(x, z) :- A(x, y), A(y, z).\n"
	facts := factBlock(10000)
	for _, src := range []string{rule + facts, facts + rule} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		prog := res.Program
		res = nil
		runtime.GC()
		runtime.ReadMemStats(&after)
		if kept := int64(after.HeapAlloc) - int64(before.HeapAlloc); kept > 16<<10 {
			t.Errorf("a 1-rule program parsed beside 10,000 facts keeps %d bytes, want at most 16 KiB", kept)
		}
		runtime.KeepAlive(prog)
	}
}
