package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dot"
	"repro/internal/eval"
	"repro/internal/parser"
)

// session is the mutable state of an interactive datalog session.
type session struct {
	program *ast.Program
	facts   []ast.GroundAtom
	tgds    []ast.TGD
	syms    *ast.SymbolTable
	out     io.Writer
	// prep caches the prepared form of program so that consecutive queries
	// (?-, :eval, :stats) reuse one schedule/compile; any mutation of the
	// program clears it via invalidate.
	prep *eval.Prepared
}

// prepared returns the session's prepared program, building it on first use
// after a mutation. The shared plan cache makes an undo (or re-entering an
// earlier program) a lookup instead of a re-plan.
func (s *session) prepared() (*eval.Prepared, error) {
	if s.prep == nil {
		pr, err := eval.DefaultPlanCache.Prepare(s.program)
		if err != nil {
			return nil, err
		}
		s.prep = pr
	}
	return s.prep, nil
}

// invalidate drops the cached prepared program; called whenever the
// session's program changes.
func (s *session) invalidate() { s.prep = nil }

// repl runs the interactive loop: plain lines are parsed as rules, facts or
// tgds and added to the session; lines starting with "?-" are queries;
// lines starting with ':' are commands (:help lists them). Errors are
// reported and the loop continues.
func repl(in io.Reader, out io.Writer) error {
	s := &session{program: ast.NewProgram(), syms: ast.NewSymbolTable(), out: out}
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
		return s.query(strings.TrimSpace(strings.TrimPrefix(line, "?-")))
	case strings.HasPrefix(line, ":"):
		return s.command(line)
	default:
		return s.addStatements(line)
	}
}

func (s *session) addStatements(src string) error {
	res, err := parser.ParseWithSymbols(src, s.syms)
	if err != nil {
		return err
	}
	// A fact contradicting the arity of one already added would panic the
	// store the next time the session's database is built.
	if len(res.Facts) > 0 {
		if err := (eval.Delta{Assert: slices.Concat(s.facts, res.Facts)}).CheckArities(); err != nil {
			return err
		}
	}
	// Validate against the accumulated program (arity consistency).
	trial := s.program.Clone()
	trial.Rules = append(trial.Rules, res.Program.Rules...)
	if err := trial.Validate(); err != nil {
		return err
	}
	s.program = trial
	s.invalidate()
	s.facts = append(s.facts, res.Facts...)
	s.tgds = append(s.tgds, res.TGDs...)
	n := len(res.Program.Rules) + len(res.Facts) + len(res.TGDs)
	fmt.Fprintf(s.out, "added %d statement(s)\n", n)
	return nil
}

func (s *session) query(atomSrc string) error {
	atomSrc = strings.TrimSuffix(atomSrc, ".")
	q, err := parser.ParseAtomWithSymbols(atomSrc, s.syms)
	if err != nil {
		return err
	}
	prep, err := s.prepared()
	if err != nil {
		return err
	}
	tuples, err := prep.Query(db.FromFacts(s.facts), q)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		fmt.Fprintln(s.out, ast.GroundAtom{Pred: q.Pred, Args: t}.Format(s.syms))
	}
	fmt.Fprintf(s.out, "%d answer(s)\n", len(tuples))
	return nil
}

func (s *session) command(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":help":
		fmt.Fprint(s.out, `statements:   G(x, z) :- A(x, z).     add a rule
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
		fmt.Fprint(s.out, s.program.Format(s.syms))
		for _, f := range s.facts {
			fmt.Fprintf(s.out, "%s.\n", f.Format(s.syms))
		}
		for _, t := range s.tgds {
			fmt.Fprintf(s.out, "%s\n", t.Format(s.syms))
		}
		return nil

	case ":eval":
		prep, err := s.prepared()
		if err != nil {
			return err
		}
		out, st, err := prep.Eval(db.FromFacts(s.facts))
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, out.Format(s.syms))
		fmt.Fprintf(s.out, "%% %d facts, %d rounds\n", out.Len(), st.Rounds)
		return nil

	case ":retract":
		if len(fields) < 2 {
			return fmt.Errorf(":retract needs a ground fact, e.g. :retract A(1, 2)")
		}
		src := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, ":retract")), ".")
		atom, err := parser.ParseAtomWithSymbols(src, s.syms)
		if err != nil {
			return err
		}
		g, err := atom.Ground(ast.Binding{})
		if err != nil {
			return fmt.Errorf(":retract needs a ground fact: %w", err)
		}
		kept := s.facts[:0]
		removed := 0
		for _, f := range s.facts {
			if f.Pred == g.Pred && f.Equal(g) {
				removed++
				continue
			}
			kept = append(kept, f)
		}
		s.facts = kept
		fmt.Fprintf(s.out, "retracted %d fact(s)\n", removed)
		return nil

	case ":minimize":
		min, trace, err := core.MinimizeProgram(s.program, core.MinimizeOptions{})
		if err != nil {
			return err
		}
		s.program = min
		s.invalidate()
		fmt.Fprint(s.out, min.Format(s.syms))
		printTrace(s.out, trace, s.syms)
		return nil

	case ":equivopt":
		opt, removals, err := core.EquivOptimize(s.program, core.EquivOptions{})
		if err != nil {
			return err
		}
		s.program = opt
		s.invalidate()
		fmt.Fprint(s.out, opt.Format(s.syms))
		fmt.Fprintf(s.out, "%% %d removals under plain equivalence\n", len(removals))
		return nil

	case ":preserve":
		if len(s.tgds) == 0 {
			return fmt.Errorf("no tgds in the session")
		}
		v, _, err := core.PreserveCheck(s.program, s.tgds, core.PreserveOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "preserves T non-recursively: %v\n", v)
		v, _, err = core.PreserveCheckPreliminary(s.program, s.tgds, core.PreserveOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "preliminary DB satisfies T: %v\n", v)
		return nil

	case ":explain":
		if len(fields) < 2 {
			return fmt.Errorf("usage: :explain Fact(…)")
		}
		goal, err := parser.ParseAtomWithSymbols(strings.TrimSuffix(strings.Join(fields[1:], " "), "."), s.syms)
		if err != nil {
			return err
		}
		if !goal.IsGround() {
			return fmt.Errorf("goal must be ground")
		}
		sess, err := core.NewSession(s.program)
		if err != nil {
			return err
		}
		d, ok, err := sess.Explain(context.Background(), db.FromFacts(s.facts), goal.MustGround(nil))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s is not derivable", goal)
		}
		fmt.Fprint(s.out, d.Format(s.program, s.syms))
		return nil

	case ":graph":
		fmt.Fprint(s.out, dot.DependenceGraph(s.program))
		return nil

	case ":stats":
		prep, err := s.prepared()
		if err != nil {
			return err
		}
		out, _, err := prep.Eval(db.FromFacts(s.facts))
		if err != nil {
			return err
		}
		sum := out.Summarize()
		fmt.Fprintf(s.out, "rules: %d (%d body atoms), tgds: %d, input facts: %d\n",
			len(s.program.Rules), s.program.BodyAtomCount(), len(s.tgds), len(s.facts))
		fmt.Fprintf(s.out, "output: %d facts over %d predicates, %d constants\n",
			sum.Facts, len(sum.Predicates), sum.Constants)
		for _, pred := range out.Preds() {
			fmt.Fprintf(s.out, "  %s: %d\n", pred, sum.Predicates[pred])
		}
		return nil

	case ":load":
		if len(fields) < 2 {
			return fmt.Errorf("usage: :load <file>")
		}
		src, err := os.ReadFile(fields[1])
		if err != nil {
			return err
		}
		return s.addStatements(string(src))

	case ":reset":
		s.program = ast.NewProgram()
		s.invalidate()
		s.facts = nil
		s.tgds = nil
		s.syms = ast.NewSymbolTable()
		fmt.Fprintln(s.out, "session cleared")
		return nil

	default:
		return fmt.Errorf("unknown command %s (:help lists commands)", fields[0])
	}
}
