package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/parser"
)

// replOnly matches the lines only the REPL prints: its banner, the count of
// statements a :load added and the count of a query's answers.
var replOnly = regexp.MustCompile(`^(datalog repl — .*|added \d+ statement\(s\)|\d+ answer\(s\))$`)

// TestReplMatchesSubcommands holds each operation the REPL shares with a
// subcommand to one body: `datalog op file args…` and a session that loads
// the file and runs the matching command print the same bytes once the
// prompts and the REPL's own lines are stripped, an error included. The
// REPL evaluates with -stats set.
func TestReplMatchesSubcommands(t *testing.T) {
	cases := []struct {
		args []string // the subcommand, the file and its arguments
		line string   // the REPL command the file's arguments follow
	}{
		{[]string{"fmt", testdataPath("ex11.dl")}, ":show"},
		{[]string{"-stats", "eval", testdataPath("tc.dl")}, ":eval"},
		{[]string{"-stats", "eval", testdataPath("reachability.dl")}, ":eval"},
		{[]string{"query", testdataPath("ancestor.dl"), `Anc("ann", y)`}, "?-"},
		{[]string{"query", testdataPath("tc.dl"), "G(1, 2, 3)"}, "?-"},
		{[]string{"minimize", testdataPath("ex7.dl")}, ":minimize"},
		{[]string{"minimize", testdataPath("dead.dl")}, ":minimize"},
		{[]string{"equivopt", testdataPath("ex11.dl")}, ":equivopt"},
		{[]string{"equivopt", testdataPath("ex19.dl")}, ":equivopt"},
		{[]string{"equivopt", testdataPath("dead.dl")}, ":equivopt"},
		{[]string{"preserve", testdataPath("ex11.dl")}, ":preserve"},
		{[]string{"preserve", testdataPath("repl/unpreserved.dl")}, ":preserve"},
		{[]string{"preserve", testdataPath("tc.dl")}, ":preserve"},
		{[]string{"explain", testdataPath("tc.dl"), "G(4, 2)"}, ":explain"},
		{[]string{"explain", testdataPath("tc.dl"), "G(9, 9)"}, ":explain"},
		{[]string{"graph", testdataPath("tc.dl")}, ":graph"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var sb strings.Builder
			err := run(tc.args, &sb)
			want := sb.String()
			if err != nil {
				want += "error: " + err.Error() + "\n"
			}
			args := tc.args
			if args[0] == "-stats" {
				args = args[1:]
			}
			line := strings.Join(append([]string{tc.line}, args[2:]...), " ")
			if got := replBody(runREPL(t, ":load "+args[1], line, ":quit")); got != want {
				t.Errorf("REPL %q printed\n%s\nthe subcommand\n%s", line, got, want)
			}
		})
	}
}

// TestContainmentMatchesAcrossEntryPoints holds every program-level
// containment entry point to one verdict and witness per direction:
// Checker.Contains, chase.UniformlyContains and chase.UniformlyEquivalent,
// and `datalog contains` and `datalog compare`. The bool-valued entries,
// core.UniformlyEquivalent and core.Session.Compare, agree on the pure pair
// and refuse the pairs with negation with chase.ErrNegation. The pairs are
// Example 6 (refuted), a negated predicate whose goal cone differs between
// the programs, and a containment that needs a case split on a negated
// literal.
func TestContainmentMatchesAcrossEntryPoints(t *testing.T) {
	type direction struct {
		v chase.Verdict
		w int
	}
	cases := []struct {
		name, src1, src2 string
		d12, d21         direction // P2 ⊑ᵘ P1 and P1 ⊑ᵘ P2
	}{
		{"ex6", "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n", "G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z).\n",
			direction{chase.Yes, -1}, direction{chase.No, 1}},
		{"negated-cone", "A(x) :- B(x), !C(x).\nC(x) :- B(x).\n", "A(x) :- B(x), !C(x).\n",
			direction{chase.Unknown, 0}, direction{chase.Unknown, 0}},
		{"case-split", "A(x) :- B(x), !C(x).\nA(x) :- B(x), C(x).\n", "A(x) :- B(x).\n",
			direction{chase.Unknown, 0}, direction{chase.Yes, -1}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p1, p2 := parser.MustParseProgram(tc.src1), parser.MustParseProgram(tc.src2)
			for _, dir := range []struct {
				label string
				a, b  *ast.Program
				want  direction
			}{{"P2 ⊑ᵘ P1", p1, p2, tc.d12}, {"P1 ⊑ᵘ P2", p2, p1, tc.d21}} {
				ck, err := chase.NewChecker(dir.a)
				if err != nil {
					t.Fatal(err)
				}
				v, w, err := ck.Contains(ctx, dir.b)
				if err != nil || (direction{v, w}) != dir.want {
					t.Errorf("%s: Checker.Contains = %v, %d, %v; want %v", dir.label, v, w, err, dir.want)
				}
				v, w, err = chase.UniformlyContains(dir.a, dir.b)
				if err != nil || (direction{v, w}) != dir.want {
					t.Errorf("%s: chase.UniformlyContains = %v, %d, %v; want %v", dir.label, v, w, err, dir.want)
				}
			}
			eq := tc.d12.v.And(tc.d21.v)
			if v, err := chase.UniformlyEquivalent(p1, p2); err != nil || v != eq {
				t.Errorf("chase.UniformlyEquivalent = %v, %v; want %v", v, err, eq)
			}

			f1, f2 := writeFile(t, "p1.dl", tc.src1), writeFile(t, "p2.dl", tc.src2)
			want := fmt.Sprintf("P2 ⊑ᵘ P1: %s\nP1 ⊑ᵘ P2: %s\nP1 ≡ᵘ P2: %s\n",
				verdictText(tc.d12.v), verdictText(tc.d21.v), verdictText(eq))
			if out := runCLI(t, "contains", f1, f2); out != want {
				t.Errorf("datalog contains printed\n%s\nwant\n%s", out, want)
			}
			out := runCLI(t, "compare", f1, f2)
			for _, line := range []string{
				containmentLine("P2 ⊑ᵘ P1", tc.d12.v, p2, tc.d12.w),
				containmentLine("P1 ⊑ᵘ P2", tc.d21.v, p1, tc.d21.w),
				"P1 ≡ᵘ P2: " + verdictText(eq) + "\n",
			} {
				if !strings.Contains(out, line) {
					t.Errorf("datalog compare printed\n%s\nwithout %q", out, line)
				}
			}

			coreEq, err1 := core.UniformlyEquivalent(p1, p2)
			s1, err := core.NewSession(p1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := core.NewSession(p2)
			if err != nil {
				t.Fatal(err)
			}
			sessionEq, err2 := s1.Compare(ctx, s2)
			if p1.HasNegation() || p2.HasNegation() {
				if !errors.Is(err1, chase.ErrNegation) || !errors.Is(err2, chase.ErrNegation) {
					t.Errorf("core.UniformlyEquivalent: %v, Session.Compare: %v; want chase.ErrNegation", err1, err2)
				}
			} else if err1 != nil || err2 != nil || coreEq != (eq == chase.Yes) || sessionEq != coreEq {
				t.Errorf("core.UniformlyEquivalent = %v, %v; Session.Compare = %v, %v; want %v", coreEq, err1, sessionEq, err2, eq == chase.Yes)
			}
		})
	}
}

// containmentLine is the line `datalog compare` prints for one direction:
// the verdict, and the rule of p not contained (No) or not shown (Unknown).
func containmentLine(label string, v chase.Verdict, p *ast.Program, w int) string {
	switch v {
	case chase.No:
		return fmt.Sprintf("%s: false   (witness: %s)\n", label, p.Rules[w])
	case chase.Unknown:
		return fmt.Sprintf("%s: unknown   (not shown for: %s)\n", label, p.Rules[w])
	}
	return label + ": true\n"
}

// replBody strips a transcript's prompts and the lines replOnly matches.
func replBody(transcript string) string {
	var sb strings.Builder
	for _, line := range strings.SplitAfter(transcript, "\n") {
		for strings.HasPrefix(line, "> ") {
			line = line[len("> "):]
		}
		if line != ">" && line != "" && !replOnly.MatchString(strings.TrimSuffix(line, "\n")) {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// TestReplTranscript replays testdata/repl/session.in, which runs every
// colon command, and compares the transcript byte for byte with
// session.out. Regenerate with: go test ./cmd/datalog -run TestReplTranscript -update
func TestReplTranscript(t *testing.T) {
	in, err := os.Open(testdataPath("repl/session.in"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var sb strings.Builder
	if err := repl(in, &sb); err != nil {
		t.Fatal(err)
	}
	path := testdataPath("repl/session.out")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing transcript (run with -update): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("transcript drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, sb.String(), want)
	}
}
