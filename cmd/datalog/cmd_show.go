package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/dot"
	"repro/internal/magic"
	"repro/internal/parser"
)

// This file holds the presentation family: commands that render a view of
// the source (canonical text, derivation trees, dependence graphs,
// magic-sets rewritings) without running a fixpoint to completion.

// cmdFmt implements both `fmt` and `parse`: print the source in canonical
// form (idempotent under re-parsing).
func (c *cli) cmdFmt(src *parser.Result, _ []string) error {
	fmt.Fprint(c.out, src.Program.Format(src.Symbols))
	for _, f := range src.Facts {
		fmt.Fprintf(c.out, "%s.\n", f.Format(src.Symbols))
	}
	for _, t := range src.TGDs {
		fmt.Fprintf(c.out, "%s\n", t.Format(src.Symbols))
	}
	return nil
}

// cmdExplain prints a derivation tree for the ground fact args[0] of the
// program's output.
func (c *cli) cmdExplain(src *parser.Result, args []string) error {
	goal, err := parser.ParseAtomWithSymbols(args[0], src.Symbols)
	if err != nil {
		return fmt.Errorf("goal fact: %w", err)
	}
	if !goal.IsGround() {
		return fmt.Errorf("explain: goal %s must be a ground fact", goal)
	}
	sess, err := core.NewSession(src.Program)
	if err != nil {
		return err
	}
	deriv, ok, err := sess.Explain(context.Background(), db.FromFacts(src.Facts), goal.MustGround(nil))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("explain: %s is not in the program's output", goal)
	}
	fmt.Fprint(c.out, deriv.Format(src.Program, src.Symbols))
	return nil
}

// cmdGraph prints the program's dependence graph in Graphviz DOT.
func (c *cli) cmdGraph(src *parser.Result, _ []string) error {
	fmt.Fprint(c.out, dot.DependenceGraph(src.Program))
	return nil
}

// cmdMagic prints the magic-sets rewriting of the program for the query
// atom args[0].
func (c *cli) cmdMagic(src *parser.Result, args []string) error {
	q, err := parser.ParseAtomWithSymbols(args[0], src.Symbols)
	if err != nil {
		return fmt.Errorf("query atom: %w", err)
	}
	rw, err := magic.Rewrite(src.Program, q)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, magic.FormatAdornment(rw))
	return nil
}
