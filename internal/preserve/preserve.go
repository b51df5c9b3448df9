// Package preserve implements Section IX of the paper: the chase-style
// procedure of Fig. 3 (after Klug and Price) for testing that a program P
// preserves a set T of tgds non-recursively — i.e. ⟨d, Pⁿ(d)⟩ ∈ SAT(T) for
// every d ∈ SAT(T) — and the Section X variant (condition 3′) testing that
// the preliminary DB of P satisfies T for every EDB.
//
// One refinement over the paper's informal presentation: the paper
// instantiates the tgd's left-hand side to *distinct* constants and then
// unifies those ground atoms with rule heads, treating a failed unification
// as an impossible combination. With a rule head containing repeated
// variables (e.g. G(z, z) :- B(z)) that would be unsound: the distinct
// constants fail to unify even though collapsed instances exist. This
// implementation therefore unifies at the term level (computing a most
// general unifier that may identify left-hand-side variables) and freezes
// only the variables that remain — the canonical-DB homomorphism argument
// in the paper's appendix is exactly the soundness proof for this variant.
package preserve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/unfold"
)

// Counterexample describes a refutation found by the Fig. 3 procedure: a DB
// d (satisfying T up to the point the chase stopped) whose one-step closure
// ⟨d, Pⁿ(d)⟩ violates the tgd on the recorded left-hand-side instance.
type Counterexample struct {
	TGD ast.TGD
	// DB is the constructed database d.
	DB *db.Database
	// LHS is the instantiated left-hand side exhibiting the violation.
	LHS []ast.GroundAtom
}

// String renders the counterexample for diagnostics.
func (c *Counterexample) String() string {
	return fmt.Sprintf("tgd %s violated on %v over\n%s", c.TGD, c.LHS, c.DB)
}

// Session holds one program prepared for repeated Fig. 3 / Section X
// preservation checks. The prepared one-step evaluator Pⁿ, the per-depth
// unfoldings, and the per-depth combination options are all computed once
// and reused across tgds and candidate probes — the Section XI optimizer
// asks the same program about many candidate tgds at many depths. A session
// is for one program: the optimizer opens a fresh one, in the same lineage,
// for each weakening it accepts.
//
// A Session is not safe for concurrent use.
type Session struct {
	// Lineage is the cumulative stats, shared by value with the other
	// sessions of the lineage exactly like chase.Checker's: plan lookups for
	// the base program and depth entries, plus the chase rounds run and facts
	// derived by combination checks.
	eval.Lineage
	p    *ast.Program
	prep *eval.Prepared
	idb  map[string]bool
	opts map[string][]option // combinationOptions(p, idb), lazily built

	prelim  map[int]*depthEntry // CheckPreliminary entries, by depth
	partial map[int]*depthEntry // Check (depth ≥ 2) entries, by depth
}

// depthEntry is one prepared depth-k variant: the (unfolded or
// initialization) program, its prepared evaluator, the idb/option tables
// the combination walk needs, and whether the unfolding was complete.
type depthEntry struct {
	prep     *eval.Prepared
	idb      map[string]bool
	opts     map[string][]option
	complete bool
}

// NewSession prepares p for preservation checks through the process-wide
// plan cache. Programs using negation are rejected (the Fig. 3 procedure is
// defined for pure Datalog).
func NewSession(p *ast.Program) (*Session, error) {
	return NewSessionIn(p, eval.NewLineage())
}

// NewSessionIn is NewSession inside an existing lineage: the session
// accumulates into the lineage's stats. equivopt.Optimize opens the session
// for each accepted weakening in the lineage its containment checker derives
// in, so Pⁿ is the plan the checker just registered.
func NewSessionIn(p *ast.Program, lin eval.Lineage) (*Session, error) {
	if p.HasNegation() {
		return nil, fmt.Errorf("preserve: pure Datalog required")
	}
	s := &Session{
		Lineage: lin,
		idb:     p.IDBPredicates(),
		prelim:  make(map[int]*depthEntry),
		partial: make(map[int]*depthEntry),
	}
	prep, err := s.prepare(p)
	if err != nil {
		return nil, err
	}
	// Keep the caller's rules: a cache hit may return the plan of an
	// alpha-renamed twin, whose program is written in other variables.
	s.p, s.prep = p.Clone(), prep
	return s, nil
}

// prepare resolves p's plan through the lineage (a counted lookup).
func (s *Session) prepare(p *ast.Program) (*eval.Prepared, error) {
	return s.Prepare(p.CanonicalString(), func() (*eval.Prepared, error) {
		return eval.Prepare(p)
	})
}

// combOpts lazily builds the Fig. 3 combination options for the session
// program: per intentional predicate, the producing rules plus the trivial
// "already in d" option.
func (s *Session) combOpts() map[string][]option {
	if s.opts == nil {
		s.opts = combinationOptions(s.p, s.idb)
	}
	return s.opts
}

// Options configures one preservation check — the consolidated form of the
// former NonRecursively/…AtDepth entry-point pairs.
type Options struct {
	// Depth selects the k-round generalization of Section X's closing
	// remark: the check runs against the depth-k unfolding of the program
	// (k-round blocks for Check, the depth-k preliminary DB for
	// CheckPreliminary). Depth ≤ 1 is the plain Fig. 3 / initialization-
	// rules procedure.
	Depth int
	// Budget bounds each internal chase; zero fields take
	// chase.DefaultBudget.
	Budget chase.Budget
}

// Check runs the Fig. 3 procedure: it decides whether p preserves T
// non-recursively, i.e. whether ⟨d, Pⁿ(d)⟩ satisfies T for every DB d
// satisfying T — at opts.Depth > 1, whether every k-round block does, via
// the partial unfolding Q with Qⁿ(d) = k rounds of P. Yes answers are
// exact. No answers come with a finite counterexample and are exact at
// depth ≤ 1; at greater depths a truncated unfolding demotes No to Unknown
// (the violation may be an artifact of the missing derivations). When T
// contains embedded tgds the internal chase of d may diverge; the budget
// then yields Unknown — mirroring the paper's remark that the procedure
// "may loop forever if T has embedded tgds and the answer is negative".
//
// Non-recursive preservation implies preservation (Section IX), which is
// condition (2) of the Section X recipe for proving P₂ ⊑ P₁. A No verdict
// at depth k may flip to Yes at a larger depth (witnesses gain rounds too),
// so callers typically probe increasing depths.
func Check(p *ast.Program, tgds []ast.TGD, opts Options) (chase.Verdict, *Counterexample, error) {
	s, err := NewSession(p)
	if err != nil {
		return chase.Unknown, nil, err
	}
	return s.Check(context.Background(), tgds, opts)
}

// Check is the session form of the package-level Check; the depth-k
// unfolding is prepared once per session and reused across candidate tgds.
// ctx is observed between tgds, between LHS combinations and inside each
// tgd round, so a deadline aborts the combination walk promptly with an error
// wrapping eval.ErrCanceled; cancellation never publishes a partial verdict.
func (s *Session) Check(ctx context.Context, tgds []ast.TGD, opts Options) (chase.Verdict, *Counterexample, error) {
	// Options for each intentional LHS atom: every rule of p with the
	// right head predicate, plus the trivial rule Q(x̄) :- Q(x̄)
	// (Section IX augments the program with trivial rules so that the
	// combinations also cover "this atom was already in d").
	prep, idb, combo := s.prep, s.idb, s.combOpts()
	complete := true
	if opts.Depth > 1 {
		e, err := s.partialEntry(opts.Depth)
		if err != nil {
			return chase.Unknown, nil, err
		}
		prep, idb, combo, complete = e.prep, e.idb, e.opts, e.complete
	}
	sawUnknown := false
	lowered := chase.LowerTGDs(tgds) // once per check, not per combination per round
	for _, tau := range tgds {
		if err := eval.CtxErr(ctx); err != nil {
			return chase.Unknown, nil, err
		}
		v, cex, err := checkTGD(ctx, prep, idb, lowered, tau, opts.Budget, combo, s.Tally())
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

// CheckPreliminary decides condition (3′) of Section X: for every EDB d,
// the preliminary DB ⟨d, Pⁱ(d)⟩ of p satisfies T — at opts.Depth > 1 the
// preliminary DB generated by the depth-k unfolding (Section X's closing
// remark: any set of rules applied a fixed number of times will do). Per
// the paper's two modifications of Fig. 3: the tgds are NOT applied to d
// (d is an arbitrary EDB, not assumed to satisfy T), and no trivial rules
// are added (an EDB has no ground atoms of intentional predicates), with
// the rule options drawn from the non-recursive unfolded program only. The
// procedure always terminates; a complete unfolding never yields Unknown.
func CheckPreliminary(p *ast.Program, tgds []ast.TGD, opts Options) (chase.Verdict, *Counterexample, error) {
	s, err := NewSession(p)
	if err != nil {
		return chase.Unknown, nil, err
	}
	return s.CheckPreliminary(context.Background(), tgds, opts)
}

// CheckPreliminary is the session form of the package-level
// CheckPreliminary; the depth-k unfolded preliminary program is prepared
// once per session and reused across candidate tgds; ctx cancels it like
// Check.
func (s *Session) CheckPreliminary(ctx context.Context, tgds []ast.TGD, opts Options) (chase.Verdict, *Counterexample, error) {
	depth := opts.Depth
	if depth < 1 {
		depth = 1
	}
	e, err := s.prelimEntry(depth)
	if err != nil {
		return chase.Unknown, nil, err
	}
	noTGDs := chase.LowerTGDs(nil) // d is any EDB: no tgd is applied to it
	for _, tau := range tgds {
		if err := eval.CtxErr(ctx); err != nil {
			return chase.Unknown, nil, err
		}
		v, cex, err := checkTGD(ctx, e.prep, e.idb, noTGDs, tau, chase.Budget{}, e.opts, s.Tally())
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

// prelimEntry returns (building on first use) the prepared depth-k
// preliminary-DB variant: depth 1 is the initialization program Pⁱ, deeper
// entries unfold p to derivation depth k (Section X's closing remark).
func (s *Session) prelimEntry(depth int) (*depthEntry, error) {
	if e, ok := s.prelim[depth]; ok {
		return e, nil
	}
	var init *ast.Program
	complete := true
	if depth <= 1 {
		init = s.p.InitRules()
	} else {
		res, err := unfold.ToDepth(s.p, depth, 0)
		if err != nil {
			return nil, err
		}
		init, complete = res.Program, res.Complete
	}
	prep, err := s.prepare(init)
	if err != nil {
		return nil, err
	}
	e := &depthEntry{prep: prep, idb: s.idb, opts: prelimOptions(init), complete: complete}
	s.prelim[depth] = e
	return e, nil
}

// prelimOptions builds the combination options of a preliminary program:
// producing rules only, no trivial options (an EDB has no ground atoms of
// intentional predicates).
func prelimOptions(init *ast.Program) map[string][]option {
	opts := make(map[string][]option)
	for _, r := range init.Rules {
		opts[r.Head.Pred] = append(opts[r.Head.Pred], option{rule: r})
	}
	return opts
}

// partialEntry returns (building on first use) the prepared depth-k
// partially unfolded variant Q with Qⁿ(d) = k rounds of P.
func (s *Session) partialEntry(depth int) (*depthEntry, error) {
	if e, ok := s.partial[depth]; ok {
		return e, nil
	}
	res, err := unfold.Partial(s.p, depth, 0)
	if err != nil {
		return nil, err
	}
	q := res.Program
	prep, err := s.prepare(q)
	if err != nil {
		return nil, err
	}
	idb := q.IDBPredicates()
	e := &depthEntry{prep: prep, idb: idb, opts: combinationOptions(q, idb), complete: res.Complete}
	s.partial[depth] = e
	return e, nil
}

// option is one way to account for an intentional LHS atom: a producing
// rule, or (trivial=true) membership in d itself.
type option struct {
	rule    ast.Rule
	trivial bool
}

// combinationOptions returns, per intentional predicate, the rules of p
// with that head plus the trivial option.
func combinationOptions(p *ast.Program, idb map[string]bool) map[string][]option {
	opts := make(map[string][]option)
	for _, r := range p.Rules {
		opts[r.Head.Pred] = append(opts[r.Head.Pred], option{rule: r})
	}
	for pred := range idb {
		opts[pred] = append(opts[pred], option{trivial: true})
	}
	return opts
}

// checkTGD enumerates all combinations for tau against the prepared
// program and runs the interleaved loop of Section IX on each: TGDs.Chase
// from the combination's d, whose phase checks whether the instantiated LHS
// exhibits a violation in ⟨d, Pⁿ(d)⟩ and leaves d as it is, so a tgd round
// applies T to d (inferences implied by d ∈ SAT(T)) before the next check. A
// violation is genuine only once d has reached its T-fixpoint. With the
// empty set (the preliminary-DB variant) no tgd round adds anything and the
// first check decides.
func checkTGD(ctx context.Context, prep *eval.Prepared, idb map[string]bool, tgds *chase.TGDs, tau ast.TGD, budget chase.Budget, opts map[string][]option, st *eval.Stats) (chase.Verdict, *Counterexample, error) {
	budget = budget.OrDefault()
	sawUnknown := false
	err := forEachCombination(idb, tau, opts, func(c *combination) error {
		if err := eval.CtxErr(ctx); err != nil {
			return err
		}
		frame := make([]ast.Const, len(c.rhs.Vars()))
		res, v, err := tgds.Chase(ctx, c.d, nil, budget, func(_ context.Context, d *db.Database, _ int) (*db.Database, bool, error) {
			st.Rounds++
			full := d.Clone()
			st.Added += full.AddAll(prep.NonRecursive(d))
			satisfied := !c.rhs.Each(full, frame, st, func() bool { return false }) // the first row satisfies the RHS
			return d, satisfied, nil
		}, st)
		if err != nil {
			return err
		}
		switch v {
		case chase.No:
			return &foundViolation{&Counterexample{TGD: tau, DB: res.DB, LHS: c.lhs}}
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

// foundViolation threads a counterexample out of the combination walk.
type foundViolation struct{ cex *Counterexample }

func (f *foundViolation) Error() string { return "violation found" }

// combination is one fully unified and frozen scenario: the database d of
// atoms known to be in the input, the instantiated LHS of the tgd, and the
// RHS — universal variables frozen, existential variables left free for the
// satisfaction search — lowered onto the join kernel.
type combination struct {
	d   *db.Database
	lhs []ast.GroundAtom
	rhs *eval.Conj
}

// forEachCombination enumerates every way of assigning an option to each
// intentional atom of tau's LHS. For each assignment it computes the most
// general unifier of the atoms with their chosen rule heads, freezes the
// remaining variables, builds d, and invokes visit. Assignments whose
// unification fails are skipped: the mgu-level unification makes this
// sound (see the package comment). An intentional atom with no producing
// rule and no trivial option (the preliminary-DB variant) also makes the
// combination impossible, since nothing could have put that atom in the
// one-step closure.
func forEachCombination(idb map[string]bool, tau ast.TGD, opts map[string][]option, visit func(*combination) error) error {
	// Rename tau apart from all rule variables.
	tau = tau.Rename(func(v string) string { return "t·" + v })

	var intAtoms []ast.Atom
	var extAtoms []ast.Atom
	for _, a := range tau.Lhs {
		if idb[a.Pred] {
			intAtoms = append(intAtoms, a)
		} else {
			extAtoms = append(extAtoms, a)
		}
	}

	choice := make([]int, len(intAtoms))
	for {
		if err := visitCombination(tau, intAtoms, extAtoms, opts, choice, visit); err != nil {
			return err
		}
		// Advance the mixed-radix counter over choices.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < len(opts[intAtoms[i].Pred]) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			return nil // the counter wrapped: every combination was visited
		}
	}
}

func visitCombination(tau ast.TGD, intAtoms, extAtoms []ast.Atom, opts map[string][]option, choice []int, visit func(*combination) error) error {
	u := ast.NewUnifier()
	type assigned struct {
		body    []ast.Atom
		trivial bool
		atom    ast.Atom
	}
	var asgs []assigned
	for i, a := range intAtoms {
		options := opts[a.Pred]
		if len(options) == 0 {
			return nil // no producer: combination impossible
		}
		opt := options[choice[i]]
		if opt.trivial {
			asgs = append(asgs, assigned{trivial: true, atom: a})
			continue
		}
		r := opt.rule.RenameApart(i)
		if !u.UnifyAtoms(a, r.Head) {
			return nil // constant clash: combination impossible
		}
		asgs = append(asgs, assigned{body: r.Body, atom: a})
	}

	// Apply the unifier everywhere, then freeze every remaining universal
	// variable (tau's LHS variables and all rule-body variables) to
	// distinct constants. Existential variables of tau appear only in the
	// RHS and stay free.
	lhsAtoms := u.ApplyAll(tau.Lhs)
	rhsAtoms := u.ApplyAll(tau.Rhs)
	existential := make(map[string]bool)
	for _, v := range tau.ExistentialVars() {
		// Existential names survive the unifier untouched (they never occur
		// in the LHS or rule heads).
		existential[v] = true
	}

	frozen := make(map[string]bool)
	var freezeList []string
	collect := func(atoms []ast.Atom) {
		for _, a := range atoms {
			for _, t := range a.Args {
				if t.IsVar && !existential[t.Name] && !frozen[t.Name] {
					frozen[t.Name] = true
					freezeList = append(freezeList, t.Name)
				}
			}
		}
	}
	collect(lhsAtoms)
	for i := range asgs {
		asgs[i].body = u.ApplyAll(asgs[i].body)
		collect(asgs[i].body)
	}

	gen := ast.NewFrozenGen(0)
	theta := ast.FreezeVars(freezeList, gen)

	d := db.New()
	for _, a := range u.ApplyAll(extAtoms) {
		d.Add(a.MustGround(theta))
	}
	lhs := make([]ast.GroundAtom, len(lhsAtoms))
	for i, a := range lhsAtoms {
		lhs[i] = a.MustGround(theta)
	}
	for _, asg := range asgs {
		if asg.trivial {
			d.Add(u.Apply(asg.atom).MustGround(theta))
			continue
		}
		for _, a := range asg.body {
			d.Add(a.MustGround(theta))
		}
	}

	rhs := eval.LowerConj(ast.ApplyAtoms(rhsAtoms, theta.Subst()), nil)
	return visit(&combination{d: d, lhs: lhs, rhs: rhs})
}
