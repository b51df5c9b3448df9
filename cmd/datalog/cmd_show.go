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

// This file holds the presentation family: commands that parse a program
// and render a view of it (canonical text, derivation trees, dependence
// graphs, magic-sets rewritings) without running a fixpoint to completion.

// cmdFmt implements both `fmt` and `parse`: parse and pretty-print in
// canonical form (idempotent under re-parsing).
func (c *cli) cmdFmt(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, res.Program.Format(res.Symbols))
	for _, f := range res.Facts {
		fmt.Fprintf(c.out, "%s.\n", f.Format(res.Symbols))
	}
	for _, t := range res.TGDs {
		fmt.Fprintf(c.out, "%s\n", t.Format(res.Symbols))
	}
	return nil
}

// cmdExplain prints a derivation tree for a ground fact of the program's
// output.
func (c *cli) cmdExplain(rest []string) error {
	res, err := load(rest, 1)
	if err != nil {
		return err
	}
	goalAtom, err := parser.ParseAtomWithSymbols(rest[1], res.Symbols)
	if err != nil {
		return fmt.Errorf("goal fact: %w", err)
	}
	if !goalAtom.IsGround() {
		return fmt.Errorf("explain: goal %s must be a ground fact", goalAtom)
	}
	sess, err := core.NewSession(res.Program)
	if err != nil {
		return err
	}
	deriv, ok, err := sess.Explain(context.Background(), db.FromFacts(res.Facts), goalAtom.MustGround(nil))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("explain: %s is not in the program's output", goalAtom)
	}
	fmt.Fprint(c.out, deriv.Format(res.Program, res.Symbols))
	return nil
}

// cmdGraph prints the program's dependence graph in Graphviz DOT.
func (c *cli) cmdGraph(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, dot.DependenceGraph(res.Program))
	return nil
}

// cmdMagic prints the magic-sets rewriting of the program for a query atom.
func (c *cli) cmdMagic(rest []string) error {
	res, err := load(rest, 1)
	if err != nil {
		return err
	}
	q, err := parser.ParseAtomWithSymbols(rest[1], res.Symbols)
	if err != nil {
		return fmt.Errorf("query atom: %w", err)
	}
	rw, err := magic.Rewrite(res.Program, q)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, magic.FormatAdornment(rw))
	return nil
}
