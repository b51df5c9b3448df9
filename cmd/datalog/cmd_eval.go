package main

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// This file holds the evaluation family: commands that run the program's
// fixpoint over the source's facts, each on the plan eval.DefaultPlanCache
// holds for the program.

// evalSource evaluates the source's program over its facts.
func evalSource(src *parser.Result) (*db.Database, eval.Stats, error) {
	prep, err := eval.DefaultPlanCache.Prepare(src.Program)
	if err != nil {
		return nil, eval.Stats{}, err
	}
	return prep.Eval(db.FromFacts(src.Facts))
}

// cmdEval prints the full output database; with -stats, the output's size
// and the run's counters.
func (c *cli) cmdEval(src *parser.Result, _ []string) error {
	out, st, err := evalSource(src)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, out.Format(src.Symbols))
	if c.stats {
		fmt.Fprintf(c.out, "%% rounds=%d firings=%d added=%d facts=%d\n", st.Rounds, st.Firings, st.Added, out.Len())
		printKernelStats(c.out, "", st)
	}
	return nil
}

// cmdQuery prints the output tuples matching the query atom args[0].
func (c *cli) cmdQuery(src *parser.Result, args []string) error {
	q, err := parser.ParseAtomWithSymbols(args[0], src.Symbols)
	if err != nil {
		return fmt.Errorf("query atom: %w", err)
	}
	prep, err := eval.DefaultPlanCache.Prepare(src.Program)
	if err != nil {
		return err
	}
	tuples, err := prep.Query(db.FromFacts(src.Facts), q)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		fmt.Fprintln(c.out, ast.GroundAtom{Pred: q.Pred, Args: t}.Format(src.Symbols))
	}
	return nil
}

// cmdCheck evaluates the source and verifies its tgds against the output.
func (c *cli) cmdCheck(src *parser.Result, _ []string) error {
	if len(src.TGDs) == 0 {
		return fmt.Errorf("check: the source declares no tgds")
	}
	out, _, err := evalSource(src)
	if err != nil {
		return err
	}
	violations := chase.Violations(out, src.TGDs, 20)
	if len(violations) == 0 {
		fmt.Fprintln(c.out, "all constraints satisfied")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintf(c.out, "VIOLATION: %s\n", v)
	}
	return fmt.Errorf("check: %d constraint violation(s)", len(violations))
}
