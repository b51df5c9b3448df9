package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
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
