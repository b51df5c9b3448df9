package dot

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/workload"
)

func TestDependenceGraphShape(t *testing.T) {
	p := workload.TransitiveClosure()
	s := DependenceGraph(p)
	for _, want := range []string{
		"digraph dependence",
		`"A" [shape=box]`,     // extensional
		`fillcolor=lightgray`, // recursive G shaded
		`"A" -> "G";`,         // init edge
		`"G" -> "G";`,         // recursive edge
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	// Duplicate edges collapse: the doubled G body contributes one edge.
	if strings.Count(s, `"G" -> "G"`) != 1 {
		t.Errorf("duplicate edges:\n%s", s)
	}
}

func TestDependenceGraphNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	s := DependenceGraph(p)
	if !strings.Contains(s, "style=dashed") {
		t.Errorf("negative edge not dashed:\n%s", s)
	}
}

func TestQuoteEscaping(t *testing.T) {
	if got := quote(`a"b`); got != `"a\"b"` {
		t.Fatalf("quote = %s", got)
	}
}
