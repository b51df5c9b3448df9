// Package harness runs the experiment suite E1–E15 defined in DESIGN.md and
// renders each as an aligned text table. The paper (PODS 1987) has no
// empirical section; these experiments operationalize its worked examples
// and prose claims — see DESIGN.md §3 for the substitution rationale and
// EXPERIMENTS.md for recorded paper-vs-measured outcomes.
//
// A table holds only what one run determines: verdicts, counts and shapes.
// Its timed cells are ops, each the work of one sub-benchmark of the table's
// Bench family; the root package's benchmarks time them, `make bench`
// records the timings in BENCH_eval.json (a Record), and the experiments
// command fills each timed cell from the row it names.
package harness

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	ID, Title string
	// Bench is the benchmark family whose sub-benchmarks time Ops.
	Bench   string
	Columns []string
	Rows    [][]string
	Ops     []Op
}

// Op is one timed cell of a table: the work its sub-benchmark times.
type Op struct {
	// Name is the sub-benchmark's name under the table's Bench family.
	Name string
	Run  func()
	// Reset, when set, restores what Run changes; it runs before every
	// Run, outside the timer.
	Reset func()
}

// Timed runs op once, for the row its results fill, registers it, and
// returns the cell that names its benchmark row: Bench/Name.
func (t *Table) Timed(op Op) string {
	if op.Reset != nil {
		op.Reset()
	}
	op.Run()
	t.Ops = append(t.Ops, op)
	return t.Bench + "/" + op.Name
}

// AddRow appends a row; cells beyond the column count are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = fmt.Sprint(cells[i])
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		line := ""
		for i, cell := range cells {
			line += cell + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)+2)
		}
		sb.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// ratio formats a/b with two decimals, guarding against division by zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
