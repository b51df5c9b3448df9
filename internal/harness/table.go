// Package harness runs the experiment suite E1–E15 defined in DESIGN.md and
// renders each as an aligned text table. The paper (PODS 1987) has no
// empirical section; these experiments operationalize its worked examples
// and prose claims — see DESIGN.md §3 for the substitution rationale and
// EXPERIMENTS.md for recorded paper-vs-measured outcomes.
package harness

import (
	"fmt"
	"strings"
	"time"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
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
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString("\n")
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

// ms formats a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// timed runs f and returns its wall-clock duration.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// ratio formats a/b with two decimals, guarding against division by zero.
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// CSV renders the table as RFC-4180-ish CSV (header row first); cells
// containing commas or quotes are quoted.
func (t Table) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&sb, row)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			sb.WriteByte('"')
			sb.WriteString(strings.ReplaceAll(cell, `"`, `""`))
			sb.WriteByte('"')
		} else {
			sb.WriteString(cell)
		}
	}
	sb.WriteByte('\n')
}

// Markdown renders the table as a GitHub-flavoured markdown table with the
// title as a heading.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		escaped := make([]string, len(row))
		for i, cell := range row {
			escaped[i] = strings.ReplaceAll(cell, "|", "\\|")
		}
		sb.WriteString("| " + strings.Join(escaped, " | ") + " |\n")
	}
	return sb.String()
}
