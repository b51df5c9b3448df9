package harness

import (
	"strconv"
	"strings"
	"testing"
)

func TestE1AllPass(t *testing.T) {
	tab := E1WorkedExamples()
	if len(tab.Rows) != 16 {
		t.Fatalf("E1 has %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "PASS" {
			t.Errorf("%s (%s): %s", row[0], row[2], row[3])
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	if len(Experiments) != 13 {
		t.Fatalf("expected 13 tables, got %d", len(Experiments))
	}
	ids := map[string]bool{}
	for _, e := range Experiments {
		tab := e.Run()
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
		if ids[tab.ID] {
			t.Errorf("duplicate table id %s", tab.ID)
		}
		ids[tab.ID] = true
		s := tab.String()
		if !strings.Contains(s, tab.ID) || !strings.Contains(s, tab.Columns[0]) {
			t.Errorf("%s renders badly:\n%s", tab.ID, s)
		}
	}
}

func TestE5ShowsSpeedup(t *testing.T) {
	tab := E5EvalSpeedup()
	// The optimized program must fire no more joins than the bloated one on
	// every workload (the paper's headline claim).
	for _, row := range tab.Rows {
		bloat, err1 := strconv.Atoi(row[2])
		opt, err2 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("non-numeric firing counts: %q %q", row[2], row[3])
		}
		if bloat < opt {
			t.Errorf("%s: bloated fired %d < optimized %d", row[0], bloat, opt)
		}
	}
}

func TestE9VerdictsMakeSense(t *testing.T) {
	tab := E9EmbeddedChase()
	for _, row := range tab.Rows {
		switch row[0] {
		case "diverging":
			if row[2] != "unknown" {
				t.Errorf("diverging instance verdict %s", row[2])
			}
		case "converging (Ex.11)":
			if row[2] != "yes" {
				t.Errorf("converging instance verdict %s", row[2])
			}
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow(1, "x")
	tab.AddRow("longer", 2)
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table rendering:\n%s", s)
	}
	// Missing and surplus cells.
	tab.AddRow("only")
	tab.AddRow(1, 2, 3)
	if rows := len(tab.Rows); rows != 4 {
		t.Fatalf("rows = %d", rows)
	}
	if got := tab.Rows[2][1]; got != "" {
		t.Fatalf("missing cell = %q", got)
	}
}

func TestHelpers(t *testing.T) {
	if got := ratio(3, 2); got != "1.50x" {
		t.Fatalf("ratio = %q", got)
	}
	if got := ratio(1, 0); got != "inf" {
		t.Fatalf("ratio/0 = %q", got)
	}
}

func TestE14BoundFirstWins(t *testing.T) {
	tab := E14SIPS()
	// Rows alternate left-to-right / bound-first per chain size; bound-first
	// must derive strictly fewer facts.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		l2r, err1 := strconv.Atoi(tab.Rows[i][3])
		bf, err2 := strconv.Atoi(tab.Rows[i+1][3])
		if err1 != nil || err2 != nil {
			t.Fatalf("non-numeric derived counts: %v", tab.Rows[i])
		}
		if bf >= l2r {
			t.Errorf("chain %s: bound-first derived %d >= %d", tab.Rows[i][0], bf, l2r)
		}
		if tab.Rows[i][2] != tab.Rows[i+1][2] {
			t.Errorf("answer counts differ: %v vs %v", tab.Rows[i], tab.Rows[i+1])
		}
	}
}

func TestE15RedundancyInflatesJustifications(t *testing.T) {
	tab := E15DerivationCounts()
	for _, row := range tab.Rows {
		jb, err1 := strconv.Atoi(row[2])
		jm, err2 := strconv.Atoi(row[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("non-numeric justification counts: %v", row)
		}
		if jb <= jm {
			t.Errorf("%s: bloated %d <= minimized %d", row[0], jb, jm)
		}
	}
}
