package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tcSource = `
G(x, z) :- A(x, z).
G(x, z) :- G(x, y), G(y, z).
A(1, 2). A(2, 3).
`

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestParseCommand(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	out := runCLI(t, "parse", f)
	if !strings.Contains(out, "G(x, z) :- G(x, y), G(y, z).") || !strings.Contains(out, "A(1, 2).") {
		t.Fatalf("parse output:\n%s", out)
	}
}

func TestEvalCommand(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	out := runCLI(t, "-stats", "eval", f)
	if !strings.Contains(out, "G(1, 3).") {
		t.Fatalf("eval output:\n%s", out)
	}
	if !strings.Contains(out, "% rounds=") {
		t.Fatalf("missing stats:\n%s", out)
	}
}

// TestCPUProfileFlag: -cpuprofile wraps the subcommand in a runtime/pprof CPU
// profile, complete (non-empty) by the time run returns.
func TestCPUProfileFlag(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if out := runCLI(t, "-cpuprofile", prof, "eval", f); !strings.Contains(out, "G(1, 3).") {
		t.Fatalf("eval output:\n%s", out)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("-cpuprofile wrote no profile: %v", err)
	}
}

func TestQueryCommand(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	out := runCLI(t, "query", f, "G(1, y)")
	if !strings.Contains(out, "G(1, 2)") || !strings.Contains(out, "G(1, 3)") {
		t.Fatalf("query output:\n%s", out)
	}
	if strings.Contains(out, "G(2, 3)") {
		t.Fatalf("query not filtered:\n%s", out)
	}
	// A query whose arity contradicts the program is an error (exit 1), not an
	// empty answer; a predicate nothing uses still answers empty.
	bad := writeFile(t, "f.dl", "A(x) :- B(x). B(1).\n")
	var sb strings.Builder
	if err := run([]string{"query", bad, "A(1,2)"}, &sb); !errors.Is(err, eval.ErrArity) {
		t.Fatalf("query A(1,2) over A/1: err = %v, want an error wrapping eval.ErrArity\n%s", err, sb.String())
	}
	if out := runCLI(t, "query", bad, "Nope(1, 2)"); out != "" {
		t.Fatalf("query of an unknown predicate printed %q", out)
	}
}

func TestMinimizeCommand(t *testing.T) {
	f := writeFile(t, "red.dl", `
G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).
`)
	out := runCLI(t, "minimize", f)
	if !strings.Contains(out, "removed 1 atoms") || !strings.Contains(out, "A(w, y)") {
		t.Fatalf("minimize output:\n%s", out)
	}
}

func TestEquivoptCommand(t *testing.T) {
	f := writeFile(t, "ex18.dl", `
G(x, z) :- A(x, z).
G(x, z) :- G(x, y), G(y, z), A(y, w).
`)
	out := runCLI(t, "equivopt", f)
	if !strings.Contains(out, "1 removals") || !strings.Contains(out, "-> A(y, w)") {
		t.Fatalf("equivopt output:\n%s", out)
	}
}

func TestContainsCommand(t *testing.T) {
	f1 := writeFile(t, "p1.dl", "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n")
	f2 := writeFile(t, "p2.dl", "G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z).\n")
	out := runCLI(t, "contains", f1, f2)
	if !strings.Contains(out, "P2 ⊑ᵘ P1: true") || !strings.Contains(out, "P1 ⊑ᵘ P2: false") {
		t.Fatalf("contains output:\n%s", out)
	}
}

// TestContainsNegationUnknown: under negation `contains` runs the
// conservative encoded test, so a containment it cannot show — here one
// that holds by a case split on C — prints as unknown, never false; and
// `compare` minimizes the stratified program too, without calling it
// minimal, since the same case split would delete !C(x).
// TestContainsNegatedConeUnknown: P1 derives C and P2 does not, so on
// d = {B(1)} P2 derives A(1) and P1 does not. The encoded test alone would
// show A's rule contained; it is not shown because C's goal cone differs
// between the programs.
func TestContainsNegatedConeUnknown(t *testing.T) {
	f1 := writeFile(t, "n1.dl", "A(x) :- B(x), !C(x).\nC(x) :- B(x).\n")
	f2 := writeFile(t, "n2.dl", "A(x) :- B(x), !C(x).\n")
	out := runCLI(t, "contains", f1, f2)
	if want := "P2 ⊑ᵘ P1: unknown\nP1 ⊑ᵘ P2: unknown\nP1 ≡ᵘ P2: unknown\n"; out != want {
		t.Fatalf("contains output:\n%s\nwant:\n%s", out, want)
	}
}

func TestContainsNegationUnknown(t *testing.T) {
	f1 := writeFile(t, "n1.dl", "A(x) :- B(x), !C(x).\nA(x) :- B(x), C(x).\n")
	f2 := writeFile(t, "n2.dl", "A(x) :- B(x).\n")
	out := runCLI(t, "contains", f1, f2)
	if want := "P2 ⊑ᵘ P1: unknown\nP1 ⊑ᵘ P2: true\nP1 ≡ᵘ P2: unknown\n"; out != want {
		t.Fatalf("contains output:\n%s\nwant:\n%s", out, want)
	}
	out = runCLI(t, "compare", f1, f2)
	if !strings.Contains(out, "P1: Fig. 2 removes nothing the negation encoding shows redundant\n") ||
		!strings.Contains(out, "P2 is minimal under uniform equivalence\n") {
		t.Fatalf("compare output:\n%s", out)
	}
}

// TestMinimizeNegatedLiteral: `minimize` takes a program with stratified
// negation, and a removed negated literal is reported with its '!'.
func TestMinimizeNegatedLiteral(t *testing.T) {
	f := writeFile(t, "dup.dl", `
Reach(x) :- Src(x).
Unreach(x) :- Node(x), !Reach(x), !Reach(x).
`)
	out := runCLI(t, "minimize", f)
	if !strings.Contains(out, "Unreach(x) :- Node(x), !Reach(x).\n") ||
		!strings.Contains(out, "%   atom !Reach(x) from Unreach(x) :- Node(x), !Reach(x), !Reach(x).\n") {
		t.Fatalf("minimize output:\n%s", out)
	}
}

// TestOptimizeStratified: `optimize` takes a program with stratified
// negation — the Section XI pass, which needs pure Datalog, is skipped —
// while `equivopt`, an explicit request for that pass, still refuses it.
func TestOptimizeStratified(t *testing.T) {
	f := writeFile(t, "neg.dl", "A(x) :- B(x), !C(x).\nC(x) :- D(x).\n")
	out := runCLI(t, "optimize", f, "A(x)")
	if want := "C(x) :- D(x).\nA@f(x) :- m@A@f(), B(x), !C(x).\n% removed 0 rules, 0 atoms; seed m@A@f(); query A@f(x)\n"; out != want {
		t.Fatalf("optimize output:\n%s\nwant:\n%s", out, want)
	}
	var sb strings.Builder
	if err := run([]string{"equivopt", f}, &sb); err == nil || !strings.Contains(err.Error(), "pure Datalog required") {
		t.Fatalf("equivopt on negation: err = %v, want the pure-Datalog refusal", err)
	}
}

func TestPreserveCommand(t *testing.T) {
	f := writeFile(t, "pres.dl", `
G(x, z) :- A(x, z).
G(x, z) :- G(x, y), G(y, z), A(y, w).
G(x, z) -> A(x, w).
`)
	out := runCLI(t, "preserve", f)
	if !strings.Contains(out, "preserves T non-recursively: yes") {
		t.Fatalf("preserve output:\n%s", out)
	}
	if !strings.Contains(out, "preliminary DB satisfies T: yes") {
		t.Fatalf("preserve output:\n%s", out)
	}
}

func TestMagicCommand(t *testing.T) {
	f := writeFile(t, "anc.dl", `
Anc(x, y) :- Par(x, y).
Anc(x, z) :- Par(x, y), Anc(y, z).
`)
	out := runCLI(t, "magic", f, "Anc(1, y)")
	if !strings.Contains(out, "m@Anc@bf") || !strings.Contains(out, "seed:") {
		t.Fatalf("magic output:\n%s", out)
	}
	// A query whose arity differs from the program's is an error (exit 1),
	// not a panic or a rewrite contradicting its own rules.
	bad := writeFile(t, "f.dl", "A(x) :- B(x). B(1).\n")
	for _, args := range [][]string{{"optimize", bad, "A(1,2)"}, {"magic", bad, "A(x, y)"}} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil || !strings.Contains(err.Error(), "arity") {
			t.Fatalf("%v: err = %v, want an arity error\n%s", args, err, sb.String())
		}
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"eval"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
	f := writeFile(t, "bad.dl", "G(x :- A(x).")
	if err := run([]string{"eval", f}, &sb); err == nil {
		t.Fatal("syntax error not surfaced")
	}
	if err := run([]string{"eval", filepath.Join(t.TempDir(), "missing.dl")}, &sb); err == nil {
		t.Fatal("missing file not surfaced")
	}
	f2 := writeFile(t, "tc.dl", tcSource)
	if err := run([]string{"query", f2, "G(1,"}, &sb); err == nil {
		t.Fatal("bad query atom accepted")
	}
	if err := run([]string{"preserve", f2}, &sb); err == nil {
		t.Fatal("preserve without tgds accepted")
	}
}

func TestExplainCommand(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	out := runCLI(t, "explain", f, "G(1, 3)")
	if !strings.Contains(out, "G(1, 3)") || !strings.Contains(out, "[input]") {
		t.Fatalf("explain output:\n%s", out)
	}
	var sb strings.Builder
	if err := run([]string{"explain", f, "G(3, 1)"}, &sb); err == nil {
		t.Fatal("absent fact explained")
	}
	if err := run([]string{"explain", f, "G(x, y)"}, &sb); err == nil {
		t.Fatal("non-ground goal accepted")
	}
	// Facts contradicting a rule's arity are the evaluator's typed error, as
	// for eval — the naive prover this command used to run panicked in the
	// store.
	bad := writeFile(t, "arity.dl", "T(x, y) :- E(x, y).\nE(1, 2). T(1, 2, 3).\n")
	if err := run([]string{"explain", bad, "T(1, 2)"}, &sb); !errors.Is(err, eval.ErrArity) {
		t.Fatalf("explain over T/3 facts: %v, want an error wrapping eval.ErrArity", err)
	}
}

// TestFactArityMismatchIsAnError pins that a source stating one fact
// predicate at two arities is refused with an error wrapping eval.ErrArity —
// by every command that loads a file and by the REPL's fact append — rather
// than panicking in the store when its database is built.
func TestFactArityMismatchIsAnError(t *testing.T) {
	f := writeFile(t, "arity.dl", "A(1). A(1, 2). G(x) :- A(x).\n")
	for _, args := range [][]string{
		{"eval", f},
		{"query", f, "G(x)"},
		{"check", f},
		{"explain", f, "G(1)"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); !errors.Is(err, eval.ErrArity) {
			t.Errorf("%v: %v, want an error wrapping eval.ErrArity", args[0], err)
		}
	}

	s := &session{program: ast.NewProgram(), syms: ast.NewSymbolTable(), out: io.Discard}
	if err := s.addStatements("A(1)."); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"A(1, 2).", "B(1). B(1, 2)."} {
		if err := s.addStatements(src); !errors.Is(err, eval.ErrArity) {
			t.Errorf("repl append %q: %v, want an error wrapping eval.ErrArity", src, err)
		}
	}
	if len(s.facts) != 1 {
		t.Fatalf("a refused append kept facts: %v", s.facts)
	}
	out := runREPL(t, "A(1).", "A(1, 2).", "?- A(x).", ":quit")
	if !strings.Contains(out, "arity mismatch") || !strings.Contains(out, "1 answer(s)") {
		t.Fatalf("transcript:\n%s", out)
	}
}

func TestGraphCommand(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	out := runCLI(t, "graph", f)
	if !strings.Contains(out, "digraph dependence") || !strings.Contains(out, `"A" -> "G"`) {
		t.Fatalf("graph output:\n%s", out)
	}
}
