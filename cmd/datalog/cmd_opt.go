package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/equivopt"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
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
	min, trace, err := minimize.Program(context.Background(), res.Program, minimize.Options{})
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, min.Format(res.Symbols))
	printTrace(c.out, trace, res.Symbols)
	if c.verbose {
		printSessionStats(c.out, trace.Stats)
	}
	return nil
}

// printTrace prints what a minimization removed, one atom or rule a line; a
// removed negated literal keeps its '!'.
func printTrace(out io.Writer, trace minimize.Trace, syms *ast.SymbolTable) {
	fmt.Fprintf(out, "%% removed %d atoms, %d rules\n", trace.AtomsRemoved(), trace.RulesRemoved())
	for _, ar := range trace.AtomRemovals {
		neg := ""
		if ar.Negated {
			neg = "!"
		}
		fmt.Fprintf(out, "%%   atom %s%s from %s\n", neg, ar.Atom.Format(syms), ar.Rule.Format(syms))
	}
	for _, r := range trace.RuleRemovals {
		fmt.Fprintf(out, "%%   rule %s\n", r.Format(syms))
	}
}

// cmdEquivOpt runs the Section XI optimization under plain equivalence.
func (c *cli) cmdEquivOpt(rest []string) error {
	res, err := load(rest, 0)
	if err != nil {
		return err
	}
	opt, removals, err := equivopt.Optimize(context.Background(), res.Program, equivopt.Options{})
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

// cmdContains decides uniform containment in both directions: exactly on
// pure programs, by the conservative encoding under negation, where a
// containment not shown prints as unknown, never false.
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
	negation := p1.HasNegation() || p2.HasNegation()
	v12, _, err := containment(p1, p2, negation)
	if err != nil {
		return err
	}
	v21, _, err := containment(p2, p1, negation)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "P2 ⊑ᵘ P1: %s\nP1 ⊑ᵘ P2: %s\nP1 ≡ᵘ P2: %s\n",
		verdictText(v12), verdictText(v21), verdictText(equivalence(v12, v21)))
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
	v, cex, err := preserve.Check(res.Program, res.TGDs, preserve.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "preserves T non-recursively: %v\n", v)
	if cex != nil {
		fmt.Fprintf(c.out, "counterexample: %v\n", cex)
	}
	v, cex, err = preserve.CheckPreliminary(res.Program, res.TGDs, preserve.Options{})
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
