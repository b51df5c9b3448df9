package parser_test

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/parser"
	"repro/internal/workload"
)

// TestQuickPrintParseRoundTrip checks that printing a random program and
// re-parsing it yields the identical program — the parser and printer are
// exact inverses on the AST's printable range.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(5))
		if p.Validate() != nil {
			return true
		}
		q, err := parser.ParseProgram(p.String())
		if err != nil {
			return false
		}
		return p.Equal(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParseMatchesOracle holds every entry point of the parser to the
// oracle's (the lexer and arenas it replaced, kept in oracle_test.go):
// identical rules, facts, tgds, positions and interned constants, or an
// identical error text. It runs on FuzzParse's seeds, on every .dl file
// under the repository's testdata, on a table of malformed sources, and on
// 1,000 printed random programs with facts and tgds appended, each also
// re-spaced and cut short.
func TestParseMatchesOracle(t *testing.T) {
	srcs := append(append([]string(nil), parser.ParseSeeds...), parser.MalformedSources...)
	err := filepath.WalkDir("../../testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".dl" {
			return err
		}
		b, err := os.ReadFile(path)
		srcs = append(srcs, string(b))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		src := randomSource(rng)
		cut := rng.Intn(len(src) + 1)
		srcs = append(srcs, src, respace(src, rng), src[:cut])
	}
	for _, src := range srcs {
		if diff := parser.DiffOracle(src); diff != "" {
			t.Fatal(diff)
		}
	}
}

// randomSource prints a random program and appends facts (integer and
// quoted constants), tgds, a rule with a negated atom and an anonymous
// variable, and a comment.
func randomSource(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString(workload.RandomProgram(rng, 1+rng.Intn(6)).String())
	consts := []string{"0", "17", "-3", `"ann"`, "'bob'", `"日本"`, "1099511627775"}
	for i := rng.Intn(5); i > 0; i-- {
		fmt.Fprintf(&sb, "A(%s, %s).\n", consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))])
	}
	for i := rng.Intn(3); i > 0; i-- {
		sb.WriteString([]string{"P(x, y) -> A(y, w).\n", "A(x, y), B(y, z) -> Q(x, w), B(w, z).\n", "Q(x, y) -> A(x, x).\n"}[rng.Intn(3)])
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("R(x) :- A(x, _), !B(x, 2). % négation\n")
	}
	return sb.String()
}

// respace replaces the single spaces and newlines of src with other
// whitespace, comments and multi-byte spaces, so positions are compared
// across tabs, CRLF line ends and runes wider than a byte.
func respace(src string, rng *rand.Rand) string {
	gaps := []string{" ", "\t", "  ", " ", "\r\n", " % ü\n", " // 日\n", "\n\t"}
	var sb strings.Builder
	for _, c := range src {
		if c == ' ' || c == '\n' {
			sb.WriteString(gaps[rng.Intn(len(gaps))])
			continue
		}
		sb.WriteRune(c)
	}
	return sb.String()
}
