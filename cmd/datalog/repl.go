package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
)

// session is the state of an interactive datalog session: the source its
// statements have built (it keeps no fact positions). Its colon commands
// call the subcommands' functions over it (`:show` is fmt's, `?-` query's),
// with -stats set.
type session struct {
	*parser.Result
	c *cli
}

// emptySource is the source of a new or reset session.
func emptySource() *parser.Result {
	return &parser.Result{Program: ast.NewProgram(), Symbols: ast.NewSymbolTable()}
}

// repl runs the interactive loop: plain lines are parsed as rules, facts or
// tgds and added to the session; lines starting with "?-" are queries;
// lines starting with ':' are commands (:help lists them). Errors are
// reported and the loop continues.
func repl(in io.Reader, out io.Writer) error {
	s := &session{Result: emptySource(), c: &cli{out: out, stats: true}}
	fmt.Fprintln(out, "datalog repl — :help for commands, :quit to exit")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == ":quit" || line == ":q" {
			return nil
		}
		if err := s.handle(line); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

func (s *session) handle(line string) error {
	switch {
	case strings.HasPrefix(line, "?-"):
		return s.query(strings.TrimSpace(line[len("?-"):]))
	case strings.HasPrefix(line, ":"):
		return s.command(line)
	default:
		return s.addStatements(line)
	}
}

func (s *session) addStatements(text string) error {
	res, err := parser.ParseWithSymbols(text, s.Symbols)
	if err != nil {
		return err
	}
	// A fact contradicting the arity of one already added would panic the
	// store the next time the session's database is built.
	if len(res.Facts) > 0 {
		if err := (eval.Delta{Assert: slices.Concat(s.Facts, res.Facts)}).CheckArities(); err != nil {
			return err
		}
	}
	// Validate against the accumulated program (arity consistency).
	trial := s.Program.Clone()
	trial.Rules = append(trial.Rules, res.Program.Rules...)
	if err := trial.Validate(); err != nil {
		return err
	}
	s.Program = trial
	s.Facts = append(s.Facts, res.Facts...)
	s.TGDs = append(s.TGDs, res.TGDs...)
	n := len(res.Program.Rules) + len(res.Facts) + len(res.TGDs)
	fmt.Fprintf(s.c.out, "added %d statement(s)\n", n)
	return nil
}

// query runs the query subcommand's body and counts the answers it printed.
func (s *session) query(atom string) error {
	var buf bytes.Buffer
	if err := (&cli{out: &buf}).cmdQuery(s.Result, []string{atom}); err != nil {
		return err
	}
	fmt.Fprintf(s.c.out, "%s%d answer(s)\n", buf.Bytes(), bytes.Count(buf.Bytes(), []byte("\n")))
	return nil
}

func (s *session) command(line string) error {
	name := strings.Fields(line)[0]
	arg := strings.TrimSpace(line[len(name):])
	switch name {
	case ":help":
		fmt.Fprint(s.c.out, `statements:   G(x, z) :- A(x, z).     add a rule
              A(1, 2).                add a fact
              G(x, z) -> A(x, w).     add a tgd
queries:      ?- G(1, y).             evaluate and print answers
commands:     :show                   print the session's program/facts/tgds
              :eval                   print the full output database
              :minimize               minimize under uniform equivalence
              :equivopt               optimize under plain equivalence
              :preserve               Fig. 3 + (3') for the session's tgds
              :explain G(1, 2)        derivation tree for a fact
              :retract A(1, 2)        remove an input fact
              :graph                  dependence graph in DOT
              :stats                  database and program statistics
              :load <file>            read statements from a file
              :reset                  clear the session
              :quit                   exit
`)
		return nil

	case ":show":
		return s.c.cmdFmt(s.Result, nil)
	case ":eval":
		return s.c.cmdEval(s.Result, nil)
	case ":minimize":
		return s.c.cmdMinimize(s.Result, nil)
	case ":equivopt":
		return s.c.cmdEquivOpt(s.Result, nil)
	case ":preserve":
		return s.c.cmdPreserve(s.Result, nil)
	case ":graph":
		return s.c.cmdGraph(s.Result, nil)
	case ":explain":
		if arg == "" {
			return fmt.Errorf("usage: :explain Fact(…)")
		}
		return s.c.cmdExplain(s.Result, []string{arg})

	case ":retract":
		if arg == "" {
			return fmt.Errorf(":retract needs a ground fact, e.g. :retract A(1, 2)")
		}
		atom, err := parser.ParseAtomWithSymbols(arg, s.Symbols)
		if err != nil {
			return err
		}
		g, err := atom.Ground(ast.Binding{})
		if err != nil {
			return fmt.Errorf(":retract needs a ground fact: %w", err)
		}
		kept := s.Facts[:0]
		for _, f := range s.Facts {
			if f.Pred != g.Pred || !f.Equal(g) {
				kept = append(kept, f)
			}
		}
		fmt.Fprintf(s.c.out, "retracted %d fact(s)\n", len(s.Facts)-len(kept))
		s.Facts = kept
		return nil

	case ":stats":
		out, _, err := evalSource(s.Result)
		if err != nil {
			return err
		}
		sum := out.Summarize()
		fmt.Fprintf(s.c.out, "rules: %d (%d body atoms), tgds: %d, input facts: %d\n",
			len(s.Program.Rules), s.Program.BodyAtomCount(), len(s.TGDs), len(s.Facts))
		fmt.Fprintf(s.c.out, "output: %d facts over %d predicates, %d constants\n",
			sum.Facts, len(sum.Predicates), sum.Constants)
		for _, pred := range out.Preds() {
			fmt.Fprintf(s.c.out, "  %s: %d\n", pred, sum.Predicates[pred])
		}
		return nil

	case ":load":
		if arg == "" {
			return fmt.Errorf("usage: :load <file>")
		}
		text, err := os.ReadFile(strings.Fields(arg)[0])
		if err != nil {
			return err
		}
		return s.addStatements(string(text))

	case ":reset":
		s.Result = emptySource()
		fmt.Fprintln(s.c.out, "session cleared")
		return nil

	default:
		return fmt.Errorf("unknown command %s (:help lists commands)", name)
	}
}
