package main

import (
	"strings"
	"testing"
)

// runREPL feeds the lines into a fresh session and returns the transcript.
func runREPL(t *testing.T, lines ...string) string {
	t.Helper()
	var sb strings.Builder
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if err := repl(in, &sb); err != nil {
		t.Fatalf("repl: %v", err)
	}
	return sb.String()
}

func TestReplAddAndQuery(t *testing.T) {
	out := runREPL(t,
		"G(x, z) :- A(x, z).",
		"G(x, z) :- G(x, y), G(y, z).",
		"A(1, 2). A(2, 3).",
		"?- G(1, y).",
		":quit",
	)
	if !strings.Contains(out, "G(1, 2)") || !strings.Contains(out, "G(1, 3)") {
		t.Fatalf("transcript:\n%s", out)
	}
	if !strings.Contains(out, "2 answer(s)") {
		t.Fatalf("transcript:\n%s", out)
	}
}

func TestReplMinimizeAndShow(t *testing.T) {
	out := runREPL(t,
		"G(x, z) :- A(x, z), A(x, w).",
		":minimize",
		":show",
		":quit",
	)
	before, after, listed := strings.Cut(out, "%   atom A(x, w) from G(x, z) :- A(x, z), A(x, w).\n")
	if !listed || !strings.Contains(before, "removed 1 atoms") {
		t.Fatalf("transcript:\n%s", out)
	}
	// Input lines are not echoed, so the redundant atom must appear nowhere
	// but in its removal line once minimization has removed it.
	if strings.Contains(before+after, "A(x, w)") {
		t.Fatalf("redundant atom survived:\n%s", out)
	}
}

// TestReplMinimizeListsNegatedRemoval: :minimize lists what it removed as
// the minimize command does, a negated literal with its '!'.
func TestReplMinimizeListsNegatedRemoval(t *testing.T) {
	out := runREPL(t,
		"Reach(x) :- Src(x).",
		"Unreach(x) :- Node(x), !Reach(x), !Reach(x).",
		":minimize",
		":quit",
	)
	if !strings.Contains(out, "Unreach(x) :- Node(x), !Reach(x).\n") ||
		!strings.Contains(out, "%   atom !Reach(x) from Unreach(x) :- Node(x), !Reach(x), !Reach(x).\n") {
		t.Fatalf("transcript:\n%s", out)
	}
}

func TestReplEquivoptAndPreserve(t *testing.T) {
	out := runREPL(t,
		"G(x, z) :- A(x, z).",
		"G(x, z) :- G(x, y), G(y, z), A(y, w).",
		"G(x, z) -> A(x, w).",
		":preserve",
		":equivopt",
		":quit",
	)
	if !strings.Contains(out, "preserves T non-recursively: yes") {
		t.Fatalf("transcript:\n%s", out)
	}
	if !strings.Contains(out, "1 removals") {
		t.Fatalf("transcript:\n%s", out)
	}
}

func TestReplExplainGraphEvalReset(t *testing.T) {
	out := runREPL(t,
		"G(x, z) :- A(x, z).",
		"A(1, 2).",
		":eval",
		":explain G(1, 2)",
		":graph",
		":reset",
		":show",
		":quit",
	)
	if !strings.Contains(out, "[input]") || !strings.Contains(out, "digraph dependence") {
		t.Fatalf("transcript:\n%s", out)
	}
	if !strings.Contains(out, "session cleared") {
		t.Fatalf("transcript:\n%s", out)
	}
}

func TestReplErrorsKeepSessionAlive(t *testing.T) {
	out := runREPL(t,
		"this is not datalog",
		":bogus",
		"?- Nope(",
		":explain G(x, y)",
		"G(x) :- A(x).",
		"G(x, y) :- A(x), A(y).", // arity clash with accumulated program
		"?- G(x).",
		":quit",
	)
	if strings.Count(out, "error:") < 4 {
		t.Fatalf("errors not reported:\n%s", out)
	}
	if !strings.Contains(out, "0 answer(s)") {
		t.Fatalf("session died after errors:\n%s", out)
	}
}

// TestReplQueryArityMismatch: a query whose arity contradicts the program is
// an error, not "0 answer(s)", and the session goes on.
func TestReplQueryArityMismatch(t *testing.T) {
	out := runREPL(t,
		"A(x) :- B(x). B(1).",
		"?- A(1,2).",
		"?- A(x).",
		":quit",
	)
	if !strings.Contains(out, "error: eval: arity mismatch") || strings.Contains(out, "0 answer(s)") {
		t.Fatalf("arity mismatch not reported:\n%s", out)
	}
	if !strings.Contains(out, "1 answer(s)") {
		t.Fatalf("session died after the error:\n%s", out)
	}
}

func TestReplHelpAndEOF(t *testing.T) {
	var sb strings.Builder
	// EOF without :quit exits cleanly.
	if err := repl(strings.NewReader(":help\n"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ":minimize") {
		t.Fatalf("help missing:\n%s", sb.String())
	}
}

func TestReplStatsAndLoad(t *testing.T) {
	f := writeFile(t, "tc.dl", tcSource)
	out := runREPL(t,
		":load "+f,
		":stats",
		":load /nonexistent/file.dl",
		":quit",
	)
	if !strings.Contains(out, "added 4 statement(s)") {
		t.Fatalf("load transcript:\n%s", out)
	}
	if !strings.Contains(out, "rules: 2") || !strings.Contains(out, "G: ") {
		t.Fatalf("stats transcript:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Fatalf("missing-file load did not report:\n%s", out)
	}
}

func TestReplRetract(t *testing.T) {
	out := runREPL(t,
		"G(x, z) :- A(x, z).",
		"G(x, z) :- G(x, y), G(y, z).",
		"A(1, 2). A(2, 3).",
		":retract A(2, 3).",
		"?- G(1, y).",
		":retract A(9, 9)",
		":quit",
	)
	if !strings.Contains(out, "retracted 1 fact(s)") {
		t.Fatalf("transcript:\n%s", out)
	}
	// With A(2,3) gone the closure from 1 stops at 2.
	if !strings.Contains(out, "1 answer(s)") || strings.Contains(out, "G(1, 3)") {
		t.Fatalf("transcript:\n%s", out)
	}
	if !strings.Contains(out, "retracted 0 fact(s)") {
		t.Fatalf("transcript:\n%s", out)
	}
}
