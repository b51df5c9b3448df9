package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// testdataPath resolves a file in the repository's testdata directory.
func testdataPath(name string) string {
	return filepath.Join("..", "..", "testdata", name)
}

// TestGoldenPrograms drives the CLI over the shipped .dl programs and
// checks characteristic fragments of each output — an end-to-end smoke of
// parser, evaluator, minimizer, optimizer, and tgd machinery against the
// paper's own programs.
func TestGoldenPrograms(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"eval tc", []string{"eval", testdataPath("tc.dl")},
			[]string{"G(4, 2).", "G(1, 1).", "A(4, 1)."}},
		{"minimize ex7", []string{"minimize", testdataPath("ex7.dl")},
			[]string{"G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).", "removed 1 atoms"}},
		{"equivopt ex11", []string{"equivopt", testdataPath("ex11.dl")},
			[]string{"G(x, z) :- G(x, y), G(y, z).", "1 removals"}},
		{"equivopt ex19", []string{"equivopt", testdataPath("ex19.dl")},
			[]string{"G(x, z) :- A(x, y), G(y, z).", "removed G(y, w), C(w)"}},
		{"preserve ex11", []string{"preserve", testdataPath("ex11.dl")},
			[]string{"preserves T non-recursively: yes", "preliminary DB satisfies T: yes"}},
		{"query ancestor", []string{"query", testdataPath("ancestor.dl"), `Anc("ann", y)`},
			[]string{`Anc("ann", "bob")`, `Anc("ann", "dave")`}},
		{"eval reachability", []string{"eval", testdataPath("reachability.dl")},
			[]string{"Dead(4).", "Dead(5).", "Reach(3)."}},
		{"graph tc", []string{"graph", testdataPath("tc.dl")},
			[]string{`"A" -> "G";`, `"G" -> "G";`}},
		{"explain tc", []string{"explain", testdataPath("tc.dl"), "G(4, 2)"},
			[]string{"G(4, 2)", "[input]"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tc.args, &sb); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			out := sb.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestGoldenNegativeChecks(t *testing.T) {
	// The Dead facts must NOT include reachable services.
	var sb strings.Builder
	if err := run([]string{"eval", testdataPath("reachability.dl")}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"Dead(1).", "Dead(2).", "Dead(3)."} {
		if strings.Contains(sb.String(), bad) {
			t.Errorf("spurious %s", bad)
		}
	}
}

func TestOptimizeCommand(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"optimize", testdataPath("ex11.dl"), "G(1, y)"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "m@G@bf") || !strings.Contains(out, "removed 0 rules, 1 atoms") {
		t.Fatalf("optimize output:\n%s", out)
	}
}

func TestFmtCommandIdempotent(t *testing.T) {
	var first strings.Builder
	if err := run([]string{"fmt", testdataPath("ancestor.dl")}, &first); err != nil {
		t.Fatal(err)
	}
	// Formatting the formatted output reproduces it byte for byte.
	tmp := writeFile(t, "fmted.dl", first.String())
	var second strings.Builder
	if err := run([]string{"fmt", tmp}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("fmt not idempotent:\n%q\nvs\n%q", first.String(), second.String())
	}
	if !strings.Contains(first.String(), `Par("ann", "bob").`) {
		t.Fatalf("fmt output:\n%s", first.String())
	}
}

func TestCheckCommand(t *testing.T) {
	// tc.dl plus a tgd the closure satisfies.
	good := writeFile(t, "good.dl", tcSource+"\nG(x, z) -> A(x, w).\n")
	var sb strings.Builder
	if err := run([]string{"check", good}, &sb); err != nil {
		t.Fatalf("check on satisfied constraints: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "all constraints satisfied") {
		t.Fatalf("check output:\n%s", sb.String())
	}

	// A violated constraint makes check fail with diagnostics.
	bad := writeFile(t, "bad.dl", tcSource+"\nG(x, z) -> Z(x).\n")
	sb.Reset()
	err := run([]string{"check", bad}, &sb)
	if err == nil {
		t.Fatal("check passed on violated constraints")
	}
	if !strings.Contains(sb.String(), "VIOLATION:") {
		t.Fatalf("check output:\n%s", sb.String())
	}

	// No tgds declared is an error.
	none := writeFile(t, "none.dl", tcSource)
	if err := run([]string{"check", none}, &sb); err == nil {
		t.Fatal("check accepted a file without tgds")
	}
}

func TestQuerySymbolIdentityAcrossTables(t *testing.T) {
	// Regression: a query constant must identify with the file's interned
	// constant even when the file interns OTHER symbols first. Before the
	// table-aware ParseAtom, "carol" in the query landed on a different
	// Const than "carol" in the facts and silently returned no answers.
	f := writeFile(t, "sym.dl", `
Anc(x, y) :- Par(x, y).
Anc(x, z) :- Par(x, y), Anc(y, z).
Par("ann", "bob").
Par("bob", "carol").
`)
	var sb strings.Builder
	if err := run([]string{"query", f, `Anc("carol", y)`}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Anc(") {
		t.Fatalf("carol has no descendants:\n%s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"query", f, `Anc(x, "carol")`}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`Anc("ann", "carol")`, `Anc("bob", "carol")`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %s in:\n%s", want, sb.String())
		}
	}
	// Same identity guarantee with every column bound (a dedup-table lookup,
	// not an index probe).
	sb.Reset()
	if err := run([]string{"query", f, `Anc("ann", "carol")`}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `Anc("ann", "carol")`) {
		t.Fatalf("fully bound query missed interned constant:\n%s", sb.String())
	}
}

// TestCompareSampleIsDeterministic: the sampled counterexample is drawn by
// a seeded rng, so every run of one pair prints the same bytes — Example
// 19's P1 against Example 11's, whose extensional predicates A and C are
// filled in one fixed order.
func TestCompareSampleIsDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 8; i++ {
		var sb strings.Builder
		if err := run([]string{"compare", testdataPath("ex19.dl"), testdataPath("ex11.dl")}, &sb); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, sb.String(), first)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	p1 := writeFile(t, "p1.dl", "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n")
	p2 := writeFile(t, "p2.dl", "G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z).\n")
	var sb strings.Builder
	if err := run([]string{"compare", p1, p2}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"P2 ⊑ᵘ P1: true",
		"P1 ⊑ᵘ P2: false",
		"witness: G(x, z) :- G(x, y), G(y, z).",
		"no disagreement found",
		"P1 is minimal",
		"P2 is minimal",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}

	// Inequivalent pair: the sampler must find a counterexample.
	p3 := writeFile(t, "p3.dl", "G(x, z) :- A(x, z).\n")
	sb.Reset()
	if err := run([]string{"compare", p1, p3}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "NO — counterexample") {
		t.Fatalf("counterexample not found:\n%s", sb.String())
	}

	// Non-minimal program reported.
	p4 := writeFile(t, "p4.dl", "G(x, z) :- A(x, z), A(x, w).\n")
	sb.Reset()
	if err := run([]string{"compare", p4, p4}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "NOT minimal") {
		t.Fatalf("non-minimality not reported:\n%s", sb.String())
	}

	// Under negation the encoded test proves containment or says nothing:
	// P2 ⊑ᵘ P1 holds by a case split on C the encoding cannot make, so it is
	// unknown, and so is ≡ᵘ — never false.
	n1 := writeFile(t, "n1.dl", "A(x) :- B(x), !C(x).\nA(x) :- B(x), C(x).\n")
	n2 := writeFile(t, "n2.dl", "A(x) :- B(x).\n")
	sb.Reset()
	if err := run([]string{"compare", n1, n2}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{
		"P2 ⊑ᵘ P1: unknown   (not shown for: A(x) :- B(x).)",
		"P1 ⊑ᵘ P2: true",
		"P1 ≡ᵘ P2: unknown",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "false") {
		t.Errorf("a conservative failure printed as false:\n%s", out)
	}
}
