package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/minimize"
	"repro/internal/workload"
)

// compareReport prints the full comparison story for two programs: uniform
// containment both ways (with the failing rule as witness), a sampled
// plain-equivalence check over random EDBs (equivalence itself being
// undecidable), and each program's distance from its Fig. 2 minimal form.
// verbose additionally reports each minimization session's cache counters
// and the process-wide plan cache state.
func compareReport(out io.Writer, p1, p2 *ast.Program, verbose bool) error {
	negation := p1.HasNegation() || p2.HasNegation()
	if negation {
		fmt.Fprintln(out, "note: stratified negation present; using the conservative encoding")
	}

	v12, w12, err := containment(p1, p2, negation)
	if err != nil {
		return err
	}
	v21, w21, err := containment(p2, p1, negation)
	if err != nil {
		return err
	}
	printContainment(out, "P2 ⊑ᵘ P1", v12, p2, w12)
	printContainment(out, "P1 ⊑ᵘ P2", v21, p1, w21)
	fmt.Fprintf(out, "P1 ≡ᵘ P2: %s\n", verdictText(equivalence(v12, v21)))

	// Equivalence over EDBs is undecidable; sample it. Agreement on every
	// sample is evidence, not proof — disagreement is a counterexample.
	if !negation {
		verdict, cex := sampleEquivalence(p1, p2, 40)
		if cex != "" {
			fmt.Fprintf(out, "P1 ≡ P2 (sampled): NO — counterexample EDB:\n%s", cex)
		} else {
			fmt.Fprintf(out, "P1 ≡ P2 (sampled over %d random EDBs): no disagreement found\n", verdict)
		}
	}

	for i, p := range []*ast.Program{p1, p2} {
		name := fmt.Sprintf("P%d", i+1)
		_, trace, err := minimize.Program(context.Background(), p, minimize.Options{})
		if err != nil {
			return err
		}
		switch {
		case trace.AtomsRemoved()+trace.RulesRemoved() > 0:
			fmt.Fprintf(out, "%s is NOT minimal: Fig. 2 removes %d atom(s), %d rule(s)\n",
				name, trace.AtomsRemoved(), trace.RulesRemoved())
		case p.HasNegation():
			// The encoding misses deletions that need a case split on a
			// negated literal, so nothing found proves nothing.
			fmt.Fprintf(out, "%s: Fig. 2 removes nothing the negation encoding shows redundant\n", name)
		default:
			fmt.Fprintf(out, "%s is minimal under uniform equivalence\n", name)
		}
		if verbose {
			fmt.Fprintf(out, "%s session: plan hits=%d misses=%d, verdicts reused=%d recomputed=%d\n",
				name, trace.Stats.PrepareHits, trace.Stats.PrepareMisses,
				trace.Stats.VerdictsReused, trace.Stats.VerdictsRecomputed)
		}
	}
	if verbose {
		cs := eval.DefaultPlanCache.Stats()
		fmt.Fprintf(out, "plan cache: hits=%d misses=%d evictions=%d entries=%d\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Entries)
	}
	return nil
}

// containment decides P_b ⊑ᵘ P_a: exactly (Yes or No) on pure Datalog, by
// the conservative encoding (Yes or Unknown) under negation. The int is the
// first rule of b not shown contained.
func containment(a, b *ast.Program, negation bool) (chase.Verdict, int, error) {
	if negation {
		return chase.StratifiedUniformlyContains(a, b)
	}
	ok, w, err := chase.UniformlyContains(a, b)
	if !ok {
		return chase.No, w, err
	}
	return chase.Yes, w, err
}

// equivalence is P1 ≡ᵘ P2 from the two containment verdicts: No when
// either direction is refuted, Yes when both hold, Unknown otherwise.
func equivalence(v12, v21 chase.Verdict) chase.Verdict {
	switch {
	case v12 == chase.No || v21 == chase.No:
		return chase.No
	case v12 == chase.Yes && v21 == chase.Yes:
		return chase.Yes
	}
	return chase.Unknown
}

// printContainment prints one containment line; a rule of p that is not
// contained (No) is a witness, one not shown contained (Unknown) is named as
// such.
func printContainment(out io.Writer, label string, v chase.Verdict, p *ast.Program, w int) {
	fmt.Fprintf(out, "%s: %s", label, verdictText(v))
	switch v {
	case chase.No:
		fmt.Fprintf(out, "   (witness: %s)", p.Rules[w])
	case chase.Unknown:
		fmt.Fprintf(out, "   (not shown for: %s)", p.Rules[w])
	}
	fmt.Fprintln(out)
}

// verdictText renders a decided verdict as true / false, and Unknown as
// unknown.
func verdictText(v chase.Verdict) string {
	switch v {
	case chase.Yes:
		return "true"
	case chase.No:
		return "false"
	default:
		return "unknown"
	}
}

// sampleEquivalence compares outputs on random EDBs over the union of both
// programs' extensional predicates; returns the number of samples and a
// rendered counterexample EDB when one is found.
func sampleEquivalence(p1, p2 *ast.Program, trials int) (int, string) {
	idb := map[string]bool{}
	for pred := range p1.IDBPredicates() {
		idb[pred] = true
	}
	for pred := range p2.IDBPredicates() {
		idb[pred] = true
	}
	sigs := map[string]int{}
	for _, p := range []*ast.Program{p1, p2} {
		for _, sig := range p.Predicates() {
			if !idb[sig.Name] {
				sigs[sig.Name] = sig.Arity
			}
		}
	}
	// Prepare each program once (through the shared plan cache); the
	// per-trial work is then just the fixpoint itself, not re-planning the
	// same two programs 40 times.
	prep1, err1 := eval.DefaultPlanCache.Prepare(p1, eval.Options{})
	prep2, err2 := eval.DefaultPlanCache.Prepare(p2, eval.Options{})
	if err1 != nil || err2 != nil {
		return 0, ""
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < trials; trial++ {
		d := workload.RandomDB(rng, p1, 4, 3)
		for pred, arity := range sigs {
			for k := 0; k < 1+rng.Intn(4); k++ {
				args := make([]ast.Const, arity)
				for i := range args {
					args[i] = ast.Int(int64(rng.Intn(4)))
				}
				d.AddTuple(pred, args)
			}
		}
		o1, _, err1 := prep1.Eval(d)
		o2, _, err2 := prep2.Eval(d)
		if err1 != nil || err2 != nil {
			continue
		}
		if !o1.Equal(o2) {
			return trial, d.String()
		}
	}
	return trials, ""
}
