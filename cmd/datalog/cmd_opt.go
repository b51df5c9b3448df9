package main

import (
	"context"
	"fmt"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/parser"
)

// This file holds the optimization family: the paper's program transforms
// (Fig. 2 minimization, Section XI equivalence-preserving optimization, the
// full query pipeline) and the containment/preservation decision procedures
// they rest on.

// cmdMinimize runs Fig. 2 minimization under uniform equivalence.
func (c *cli) cmdMinimize(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	min, trace, err := core.MinimizeProgram(res.Program, core.MinimizeOptions{})
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, min.Format(res.Symbols))
	fmt.Fprintf(c.out, "%% removed %d atoms, %d rules\n", trace.AtomsRemoved(), trace.RulesRemoved())
	for _, ar := range trace.AtomRemovals {
		fmt.Fprintf(c.out, "%%   atom %s from %s\n", ar.Atom.Format(res.Symbols), ar.Rule.Format(res.Symbols))
	}
	for _, r := range trace.RuleRemovals {
		fmt.Fprintf(c.out, "%%   rule %s\n", r.Format(res.Symbols))
	}
	if c.verbose {
		printSessionStats(c.out, trace.Stats)
	}
	return nil
}

// cmdEquivOpt runs the Section XI optimization under plain equivalence.
func (c *cli) cmdEquivOpt(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	opt, removals, err := core.EquivOptimize(res.Program, core.EquivOptions{})
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, opt.Format(res.Symbols))
	fmt.Fprintf(c.out, "%% %d removals under plain equivalence\n", len(removals))
	for _, r := range removals {
		fmt.Fprintf(c.out, "%%   removed %s via tgd %s\n", ast.FormatAtoms(r.Atoms, res.Symbols), r.TGD.Format(res.Symbols))
	}
	return nil
}

// cmdContains decides uniform containment in both directions.
func (c *cli) cmdContains(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: datalog contains <file1> <file2>")
	}
	p1, err := loadProgram(rest[0])
	if err != nil {
		return err
	}
	p2, err := loadProgram(rest[1])
	if err != nil {
		return err
	}
	// One containment session per side: each Checker prepares its
	// program once and reuses it for every frozen-rule test.
	ck1, err := chase.NewChecker(p1)
	if err != nil {
		return err
	}
	ok12, _, err := ck1.Contains(context.Background(), p2)
	if err != nil {
		return err
	}
	ck2, err := chase.NewChecker(p2)
	if err != nil {
		return err
	}
	ok21, _, err := ck2.Contains(context.Background(), p1)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "P2 ⊑ᵘ P1: %v\nP1 ⊑ᵘ P2: %v\nP1 ≡ᵘ P2: %v\n", ok12, ok21, ok12 && ok21)
	return nil
}

// cmdPreserve runs the Fig. 3 preservation check and the preliminary-DB
// condition (3′) for the file's tgds.
func (c *cli) cmdPreserve(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	if len(res.TGDs) == 0 {
		return fmt.Errorf("preserve: the file declares no tgds")
	}
	v, cex, err := core.PreserveCheck(res.Program, res.TGDs, core.PreserveOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "preserves T non-recursively: %v\n", v)
	if cex != nil {
		fmt.Fprintf(c.out, "counterexample: %v\n", cex)
	}
	v, cex, err = core.PreserveCheckPreliminary(res.Program, res.TGDs, core.PreserveOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "preliminary DB satisfies T: %v\n", v)
	if cex != nil {
		fmt.Fprintf(c.out, "counterexample: %v\n", cex)
	}
	return nil
}

// cmdOptimize runs the full query pipeline: prune, minimize, equivopt,
// magic rewriting.
func (c *cli) cmdOptimize(rest []string) error {
	res, err := load(rest, 1)
	if err != nil {
		return err
	}
	q, err := parser.ParseAtomWithSymbols(rest[1], res.Symbols)
	if err != nil {
		return fmt.Errorf("query atom: %w", err)
	}
	pres, err := core.OptimizeForQuery(res.Program, q, core.DefaultPipeline())
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, pres.Program.Format(res.Symbols))
	fmt.Fprintf(c.out, "%% removed %d rules, %d atoms; seed %s; query %s\n",
		pres.RulesRemoved, pres.AtomsRemoved,
		pres.Rewritten.Seed.Format(res.Symbols), pres.Rewritten.Query.Format(res.Symbols))
	return nil
}
