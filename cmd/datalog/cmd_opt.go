package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/equivopt"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
)

// This file holds the optimization family: the paper's program transforms
// (Fig. 2 minimization, Section XI equivalence-preserving optimization, the
// full query pipeline) and the containment/preservation decision procedures
// they rest on. A transform leaves its result in the source it ran on.

// cmdMinimize runs Fig. 2 minimization under uniform equivalence.
func (c *cli) cmdMinimize(src *parser.Result, _ []string) error {
	min, trace, err := minimize.Program(context.Background(), src.Program, minimize.Options{})
	if err != nil {
		return err
	}
	src.Program = min
	fmt.Fprint(c.out, min.Format(src.Symbols))
	printTrace(c.out, trace, src.Symbols)
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
func (c *cli) cmdEquivOpt(src *parser.Result, _ []string) error {
	opt, removals, err := equivopt.Optimize(context.Background(), src.Program, equivopt.Options{})
	if err != nil {
		return err
	}
	src.Program = opt
	fmt.Fprint(c.out, opt.Format(src.Symbols))
	fmt.Fprintf(c.out, "%% %d removals under plain equivalence\n", len(removals))
	for _, r := range removals {
		fmt.Fprintf(c.out, "%%   removed %s via tgd %s\n", ast.FormatAtoms(r.Atoms, src.Symbols), r.TGD.Format(src.Symbols))
	}
	return nil
}

// cmdContains decides uniform containment in both directions: exactly on
// pure programs, by the conservative encoding under negation, where a
// containment not shown prints as unknown, never false.
func (c *cli) cmdContains(rest []string) error {
	p1, p2, err := loadPair("contains", rest)
	if err != nil {
		return err
	}
	v12, _, err := chase.UniformlyContains(p1, p2)
	if err != nil {
		return err
	}
	v21, _, err := chase.UniformlyContains(p2, p1)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "P2 ⊑ᵘ P1: %s\nP1 ⊑ᵘ P2: %s\nP1 ≡ᵘ P2: %s\n",
		verdictText(v12), verdictText(v21), verdictText(v12.And(v21)))
	return nil
}

// cmdPreserve runs the Fig. 3 preservation check and the preliminary-DB
// condition (3′) for the source's tgds.
func (c *cli) cmdPreserve(src *parser.Result, _ []string) error {
	if len(src.TGDs) == 0 {
		return fmt.Errorf("preserve: the source declares no tgds")
	}
	v, cex, err := preserve.Check(src.Program, src.TGDs, preserve.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "preserves T non-recursively: %v\n", v)
	if cex != nil {
		fmt.Fprintf(c.out, "counterexample: %v\n", cex)
	}
	v, cex, err = preserve.CheckPreliminary(src.Program, src.TGDs, preserve.Options{})
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
func (c *cli) cmdOptimize(src *parser.Result, args []string) error {
	q, err := parser.ParseAtomWithSymbols(args[0], src.Symbols)
	if err != nil {
		return fmt.Errorf("query atom: %w", err)
	}
	pres, err := core.OptimizeForQuery(src.Program, q, core.DefaultPipeline())
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, pres.Program.Format(src.Symbols))
	fmt.Fprintf(c.out, "%% removed %d rules, %d atoms; seed %s; query %s\n",
		pres.RulesRemoved, pres.AtomsRemoved,
		pres.Rewritten.Seed.Format(src.Symbols), pres.Rewritten.Query.Format(src.Symbols))
	return nil
}
