package preserve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/oracle"
)

// Fig. 3's procedure as it ran before chase.TGDs.Chase became its loop:
// Check, CheckPreliminary and checkTGD around the combination loop
// refRunCombination, kept here as the reference the one loop is held to —
// the same verdict and counterexample, and the same rounds and facts counted.
// They are unchanged but for their names and the tgd round, which is
// unexported now: the reference fires the tgds through the binding-map
// oracle, the round TestTGDStepsMatchOracle holds the lowered one to, nulls
// included.

func (s *Session) refCheck(ctx context.Context, tgds []ast.TGD, opts Options) (chase.Verdict, *Counterexample, error) {
	e, err := s.entry(entryKey{depth: opts.Depth})
	if err != nil {
		return chase.Unknown, nil, err
	}
	prep, idb, combo, complete := e.prep, s.idb, e.opts, e.complete
	sawUnknown := false
	for _, tau := range tgds {
		if err := eval.CtxErr(ctx); err != nil {
			return chase.Unknown, nil, err
		}
		v, cex, err := refCheckTGD(ctx, prep, idb, tgds, tau, opts.Budget, combo, s.Tally())
		if err != nil {
			return chase.Unknown, nil, err
		}
		switch v {
		case chase.No:
			if !complete {
				return chase.Unknown, cex, nil
			}
			return chase.No, cex, nil
		case chase.Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return chase.Unknown, nil, nil
	}
	return chase.Yes, nil, nil
}

func (s *Session) refCheckPreliminary(ctx context.Context, tgds []ast.TGD, opts Options) (chase.Verdict, *Counterexample, error) {
	e, err := s.entry(entryKey{prelim: true, depth: opts.Depth})
	if err != nil {
		return chase.Unknown, nil, err
	}
	for _, tau := range tgds {
		if err := eval.CtxErr(ctx); err != nil {
			return chase.Unknown, nil, err
		}
		v, cex, err := refCheckTGD(ctx, e.prep, s.idb, nil, tau, chase.Budget{}, e.opts, s.Tally())
		if err != nil {
			return chase.Unknown, nil, err
		}
		if v == chase.No {
			if !e.complete {
				// The unfolding was truncated; the violation may be an
				// artifact of the missing derivations.
				return chase.Unknown, cex, nil
			}
			return chase.No, cex, nil
		}
	}
	return chase.Yes, nil, nil
}

func refCheckTGD(ctx context.Context, prep *eval.Prepared, idb map[string]bool, tgds []ast.TGD, tau ast.TGD, budget chase.Budget, opts map[string][]option, st *eval.Stats) (chase.Verdict, *Counterexample, error) {
	sawUnknown := false
	err := forEachCombination(idb, tau, opts, func(c *combination) error {
		if err := eval.CtxErr(ctx); err != nil {
			return err
		}
		v, cex, err := refRunCombination(ctx, prep, tgds, tau, c, budget, st)
		if err != nil {
			return err
		}
		switch v {
		case chase.No:
			return &foundViolation{cex}
		case chase.Unknown:
			sawUnknown = true
		}
		return nil
	})
	if err != nil {
		var fv *foundViolation
		if errors.As(err, &fv) {
			return chase.No, fv.cex, nil
		}
		return chase.Unknown, nil, err
	}
	if sawUnknown {
		return chase.Unknown, nil, nil
	}
	return chase.Yes, nil, nil
}

func refRunCombination(ctx context.Context, prep *eval.Prepared, tgds []ast.TGD, tau ast.TGD, c *combination, budget chase.Budget, st *eval.Stats) (chase.Verdict, *Counterexample, error) {
	budget = budget.OrDefault()
	_, maxNull := c.d.MaxGeneratedIndexes()
	nullGen := ast.NewNullGen(maxNull + 1)
	d := c.d
	frame := make([]ast.Const, len(c.rhs.Vars()))
	for round := 0; round < budget.MaxRounds; round++ {
		st.Rounds++
		full := d.Clone()
		st.Added += full.AddAll(prep.NonRecursive(d))
		if !c.rhs.Each(full, frame, st, func() bool { return false }) {
			return chase.Yes, nil, nil // the first row satisfies the RHS
		}
		if tgds == nil {
			return chase.No, &Counterexample{TGD: tau, DB: d.Clone(), LHS: c.lhs}, nil
		}
		added := refApplyRound(tgds, d, nullGen)
		st.Added += added
		if added == 0 {
			return chase.No, &Counterexample{TGD: tau, DB: d.Clone(), LHS: c.lhs}, nil
		}
		if d.Len() > budget.MaxAtoms {
			return chase.Unknown, nil, nil
		}
	}
	return chase.Unknown, nil, nil
}

// refApplyRound is one restricted-chase round of tgds over d through the
// binding-map oracle: every violated trigger found against d as it stood,
// re-checked before it fires.
func refApplyRound(tgds []ast.TGD, d *db.Database, nullGen *ast.ConstGen) int {
	added := 0
	for _, t := range tgds {
		var pending []ast.Binding
		b := ast.Binding{}
		oracle.MatchConjunction(d, t.Lhs, b, func() bool {
			if !oracle.Satisfiable(d, t.Rhs, b) {
				pending = append(pending, b.Clone())
			}
			return true
		})
		for _, theta := range pending {
			if oracle.Satisfiable(d, t.Rhs, theta) {
				continue
			}
			for _, z := range t.ExistentialVars() {
				theta[z] = nullGen.Fresh()
			}
			for _, a := range t.Rhs {
				if d.Add(a.MustGround(theta)) {
					added++
				}
			}
		}
	}
	return added
}

// drawPreservation draws a program over extensional A, B and intentional P,
// Q — one to three rules of one to three body atoms, the odd constant and
// repeated variable — and one or two tgds over all four, full or embedded.
func drawPreservation(rng *rand.Rand) (*ast.Program, []ast.TGD) {
	preds, vars := []string{"A", "B", "P", "Q"}, []string{"x", "y", "z"}
	term := func(vars []string) ast.Term {
		if rng.Intn(9) == 0 {
			return ast.IntTerm(int64(rng.Intn(2)))
		}
		return ast.Var(vars[rng.Intn(len(vars))])
	}
	atoms := func(n int, preds, vars []string) []ast.Atom {
		out := make([]ast.Atom, n)
		for i := range out {
			out[i] = ast.NewAtom(preds[rng.Intn(len(preds))], term(vars), term(vars))
		}
		return out
	}
	p := ast.NewProgram()
	for len(p.Rules) == 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			body := atoms(1+rng.Intn(3), preds, vars)
			if bv := ast.VarsOfAtoms(body); len(bv) > 0 {
				p.Rules = append(p.Rules, ast.Rule{Head: atoms(1, preds[2:], bv)[0], Body: body})
			}
		}
	}
	var tgds []ast.TGD
	for len(tgds) < 1+rng.Intn(2) {
		t := ast.TGD{Lhs: atoms(1+rng.Intn(2), preds, vars)}
		rhsVars := ast.VarsOfAtoms(t.Lhs)
		if len(rhsVars) == 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			rhsVars = append(rhsVars, "e")
		}
		t.Rhs = atoms(1+rng.Intn(2), preds, rhsVars)
		tgds = append(tgds, t)
	}
	return p, tgds
}

// TestCheckMatchesReference holds Check and CheckPreliminary, at depths 1
// and 2, to the reference loop on 400 random program and tgd-set pairs under
// budgets that cut some embedded chases, and compares the rounds and facts
// their sessions count.
func TestCheckMatchesReference(t *testing.T) {
	ctx := context.Background()
	seen := map[string]int{}
	render := func(v chase.Verdict, cex *Counterexample, err error) string {
		if cex == nil {
			return fmt.Sprintf("%v, no counterexample, %v", v, err)
		}
		return fmt.Sprintf("%v, %v", v, cex)
	}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, tgds := drawPreservation(rng)
		// A zero MaxRounds takes the default's 10,000; MaxAtoms is never
		// zero, or a divergent chase would run to the default's 100,000.
		budget := chase.Budget{MaxAtoms: 6 + rng.Intn(200), MaxRounds: rng.Intn(12)}
		got, err := NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		for depth := 1; depth <= 2; depth++ {
			opts := Options{Depth: depth, Budget: budget}
			for _, arm := range []struct {
				name     string
				got, ref func(context.Context, []ast.TGD, Options) (chase.Verdict, *Counterexample, error)
			}{
				{"Check", got.Check, ref.refCheck},
				{"CheckPreliminary", got.CheckPreliminary, ref.refCheckPreliminary},
			} {
				v, cex, err := arm.got(ctx, tgds, opts)
				g, r := render(v, cex, err), render(arm.ref(ctx, tgds, opts))
				if g != r {
					t.Fatalf("seed %d: %s at depth %d, budget %+v, of %v under %v:\n%s\nreference:\n%s", seed, arm.name, depth, budget, p, tgds, g, r)
				}
				seen[arm.name+"/"+v.String()]++
			}
		}
		if gs, rs := got.Stats(), ref.Stats(); gs.Rounds != rs.Rounds || gs.Added != rs.Added {
			t.Fatalf("seed %d: %d rounds and %d facts counted, reference %d and %d", seed, gs.Rounds, gs.Added, rs.Rounds, rs.Added)
		}
	}
	for _, k := range []string{"Check/yes", "Check/no", "Check/unknown", "CheckPreliminary/yes", "CheckPreliminary/no"} {
		if seen[k] < 20 {
			t.Errorf("%s drawn %d times, want ≥ 20: %v", k, seen[k], seen)
		}
	}
}
