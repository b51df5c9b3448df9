package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's tables from the harness and BENCH_eval.json")

const docPath = "../../EXPERIMENTS.md"

// timeRe matches a stated duration: a number with a time unit.
var timeRe = regexp.MustCompile(`\d[\d.,]*\s?(ns|µs|us|ms|s|seconds?)\b`)

// TestExperimentsDocIsRendered: every table in EXPERIMENTS.md is the
// harness's table with its time cells read from the committed
// BENCH_eval.json, byte for byte, and the text around the tables states no
// time of its own. It runs no timing. With -update it rewrites the tables.
func TestExperimentsDocIsRendered(t *testing.T) {
	rec, err := readRecord("../../" + recordPath)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]string)
	for _, e := range harness.Experiments {
		tab := e.Run()
		if err := fillTimes(&tab, rec); err != nil {
			t.Fatal(err)
		}
		tables[tab.ID] = tab.String()
	}
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	got, prose, err := renderDoc(doc, tables)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(docPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != doc {
		for id, tab := range tables {
			if !strings.Contains(doc, "```\n"+tab+"```\n") {
				t.Errorf("EXPERIMENTS.md's %s table is not the rendered one (go test ./cmd/experiments -update):\n%s", id, tab)
			}
		}
	}
	if times := timeRe.FindAllString(prose, -1); len(times) > 0 {
		t.Errorf("EXPERIMENTS.md states times outside its rendered tables: %q", times)
	}
}

// renderDoc replaces each fenced block of doc that opens with a table's
// title line ("E5 — …") by that table as rendered, and returns the new
// document and the text outside those blocks. Every table has exactly one
// block, and every block that opens with a title line is a table's.
func renderDoc(doc string, tables map[string]string) (out, prose string, err error) {
	titled := regexp.MustCompile(`^(E\d+) — `)
	lines := strings.SplitAfter(doc, "\n")
	var sb, ps strings.Builder
	seen := make(map[string]bool)
	for i := 0; i < len(lines); i++ {
		sb.WriteString(lines[i])
		if !strings.HasPrefix(lines[i], "```") {
			ps.WriteString(lines[i])
			continue
		}
		end := i + 1
		for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
			end++
		}
		if end == len(lines) {
			return "", "", fmt.Errorf("EXPERIMENTS.md: the block opened on line %d is not closed", i+1)
		}
		body := strings.Join(lines[i+1:end], "")
		if m := titled.FindStringSubmatch(body); m != nil {
			tab, ok := tables[m[1]]
			switch {
			case !ok:
				return "", "", fmt.Errorf("EXPERIMENTS.md line %d: a %s table, which the harness does not have", i+2, m[1])
			case seen[m[1]]:
				return "", "", fmt.Errorf("EXPERIMENTS.md line %d: a second %s table", i+2, m[1])
			}
			seen[m[1]], body = true, tab
		} else {
			ps.WriteString(body)
		}
		sb.WriteString(body)
		sb.WriteString(lines[end])
		i = end
	}
	for id := range tables {
		if !seen[id] {
			return "", "", fmt.Errorf("EXPERIMENTS.md has no %s block", id)
		}
	}
	return sb.String(), ps.String(), nil
}
