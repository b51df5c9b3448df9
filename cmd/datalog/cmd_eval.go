package main

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/constraint"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// This file holds the evaluation family: commands that run the program's
// fixpoint over the facts in the file.

// cmdEval evaluates the file's facts and prints the full output database.
func (c *cli) cmdEval(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	outDB, st, err := eval.Eval(res.Program, db.FromFacts(res.Facts))
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, outDB.Format(res.Symbols))
	if c.stats {
		fmt.Fprintf(c.out, "%% rounds=%d firings=%d added=%d\n", st.Rounds, st.Firings, st.Added)
		printKernelStats(c.out, "", st)
	}
	return nil
}

// cmdQuery evaluates and prints the tuples matching a query atom.
func (c *cli) cmdQuery(rest []string) error {
	res, err := load(rest, 1)
	if err != nil {
		return err
	}
	q, err := parser.ParseAtomWithSymbols(rest[1], res.Symbols)
	if err != nil {
		return fmt.Errorf("query atom: %w", err)
	}
	tuples, err := eval.Query(res.Program, db.FromFacts(res.Facts), q)
	if err != nil {
		return err
	}
	for _, t := range tuples {
		fmt.Fprintln(c.out, ast.GroundAtom{Pred: q.Pred, Args: t}.Format(res.Symbols))
	}
	return nil
}

// cmdCheck evaluates the file and verifies its tgds against the output.
func (c *cli) cmdCheck(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	if len(res.TGDs) == 0 {
		return fmt.Errorf("check: the file declares no tgds")
	}
	prep, err := eval.DefaultPlanCache.Prepare(res.Program)
	if err != nil {
		return err
	}
	outDB, _, err := prep.Eval(db.FromFacts(res.Facts))
	if err != nil {
		return err
	}
	violations := constraint.Violations(outDB, res.TGDs, 20)
	if len(violations) == 0 {
		fmt.Fprintln(c.out, "all constraints satisfied")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintf(c.out, "VIOLATION: %s\n", v)
	}
	return fmt.Errorf("check: %d constraint violation(s)", len(violations))
}
