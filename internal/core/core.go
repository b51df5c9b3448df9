// Package core is what composes the library's packages, plus the surface the
// repository benchmark pins. It reproduces Yehoshua Sagiv, "Optimizing
// Datalog Programs" (PODS 1987); each procedure lives in, and is called
// from, the package that owns it:
//
//   - parser.Parse / parser.ParseProgram / parser.ParseTGD — the concrete
//     Datalog syntax.
//   - eval.Eval / eval.DefaultPlanCache.Prepare — bottom-up computation
//     (Section III); Prepare caches a program's evaluation plan.
//   - chase.NewChecker / chase.UniformlyEquivalent — the decidable
//     containment test of Section VI (Cor. 2).
//   - minimize.Rule / minimize.Program — the Figs. 1–2 minimization under
//     uniform equivalence (Section VII), for pure and stratified programs.
//   - chase.Apply / chase.SATModelsContained — the combined [P,T] chase of
//     Section VIII.
//   - preserve.Check / preserve.CheckPreliminary — the Fig. 3 procedure and
//     condition (3′) of Sections IX–X, at any unfolding depth.
//   - equivopt.Optimize — the Section XI optimization under plain
//     equivalence.
//   - magic.Rewrite / magic.Answer — the magic-sets evaluation method the
//     optimizations compose with.
//   - analysis.Analyze / depgraph.ClassifyTGDs — the static analyzer behind
//     `datalog vet` and the chase-termination ladder.
//
// What core adds joins several of them: NewSession opens a Session (a
// program's plan plus one lazily built containment checker, service.go) and
// its maintained Views (view.go), and OptimizeForQuery runs pruning, Fig. 2,
// Section XI and magic sets as one pipeline. Every other exported name
// aliases or forwards to its owning package, or is one of the two ignored
// options types, and is kept only because the benchmark under bench/ names
// it; no other caller may (TestStructure/one-facade).
//
// A minimal session:
//
//	res, _ := parser.Parse(`
//	    G(x, z) :- A(x, z).
//	    G(x, z) :- G(x, y), G(y, z), A(y, w).
//	    A(1, 2). A(2, 3).
//	`)
//	opt, _, _ := equivopt.Optimize(ctx, res.Program, equivopt.Options{})
//	sess, _ := core.NewSession(opt)
//	out, _, _ := sess.Eval(ctx, db.FromFacts(res.Facts))
package core

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/parser"
	"repro/internal/preserve"
	"repro/internal/rewrite"
)

// The names from here to PipelineOptions are the surface bench/ pins: each
// aliases or forwards to the package that owns it, and goes once bench/
// calls that package instead.

// Re-exported types.
type (
	// Program is a set of Datalog rules.
	Program = ast.Program
	// Atom is an atomic formula.
	Atom = ast.Atom
	// GroundAtom is a fact.
	GroundAtom = ast.GroundAtom
	// Const is a constant value (integer, interned symbol, frozen constant,
	// or labeled null).
	Const = ast.Const
	// Database is a set of facts grouped into relations.
	Database = db.Database
	// EvalStats reports evaluation work.
	EvalStats = eval.Stats
	// Budget bounds potentially diverging chases.
	Budget = chase.Budget
	// Verdict is a three-valued chase outcome (Yes / No / Unknown).
	Verdict = chase.Verdict
	// MinimizeOptions configures Figs. 1–2 minimization.
	MinimizeOptions = minimize.Options
	// EquivOptions configures the Section XI equivalence optimizer.
	EquivOptions = equivopt.Options
	// PreserveOptions configures one preservation check (depth and chase
	// budget).
	PreserveOptions = preserve.Options
)

// ContainmentChecker is a uniform-containment session over a fixed
// containing program: one prepared program serves every rule test, with
// frozen bodies and verdicts memoized. It is chase.Checker — whose tests take
// a context first — plus the one ctx-less spelling bench/ pins.
type ContainmentChecker struct{ *chase.Checker }

// ContainsRule decides r ⊑ᵘ P with no cancellation; a rule with negation is
// refused with chase.ErrNegation. Bench-pinned: bench/optimize.go calls
// ck.ContainsRule(r); new code passes a context to the embedded Checker.
func (c ContainmentChecker) ContainsRule(r ast.Rule) (bool, error) {
	if r.HasNegation() {
		return false, chase.ErrNegation
	}
	return c.Checker.ContainsRule(context.Background(), r)
}

// Verdict values.
const (
	Yes     = chase.Yes
	No      = chase.No
	Unknown = chase.Unknown
)

// Parse parses a source of rules, facts and tgds.
func Parse(src string) (*parser.Result, error) { return parser.Parse(src) }

// ParseProgram parses a source containing only rules.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// Analyze runs the static-analysis passes of internal/analysis over a parsed
// source and returns positioned diagnostics in source order.
func Analyze(res *parser.Result) []analysis.Diagnostic { return analysis.Analyze(res) }

// ClassifyTGDs runs the termination analysis of internal/depgraph over a
// program's rules and a tgd set. p may be nil (tgds alone).
func ClassifyTGDs(p *Program, tgds []ast.TGD) depgraph.Classification {
	var rules []ast.Rule
	if p != nil {
		rules = p.Rules
	}
	return depgraph.ClassifyTGDs(rules, tgds)
}

// FromFacts builds a database from facts.
func FromFacts(facts []GroundAtom) *Database { return db.FromFacts(facts) }

// EvalOptions is ignored: evaluation has no setting. It stays only because
// bench/ constructs it.
type EvalOptions struct{}

// PrepareEval is eval.DefaultPlanCache.Prepare: p's plan from the
// process-wide content-addressed plan cache.
func PrepareEval(p *Program, _ EvalOptions) (*eval.Prepared, error) {
	return eval.DefaultPlanCache.Prepare(p)
}

// PlanCacheStats reports the process-wide plan cache's counters and size.
func PlanCacheStats() eval.CacheStats {
	return eval.DefaultPlanCache.Stats()
}

// NewContainmentChecker opens a uniform-containment session whose
// containing program is p1 (chase.NewChecker). The test is exact, so a p1
// with negation is refused with chase.ErrNegation.
func NewContainmentChecker(p1 *Program) (ContainmentChecker, error) {
	if p1.HasNegation() {
		return ContainmentChecker{}, chase.ErrNegation
	}
	ck, err := chase.NewChecker(p1)
	return ContainmentChecker{ck}, err
}

// UniformlyEquivalent decides P₁ ≡ᵘ P₂ (Section VI).
func UniformlyEquivalent(p1, p2 *Program) (bool, error) {
	return chase.UniformlyEquivalent(p1, p2)
}

// MinimizeProgram minimizes a program under uniform equivalence (Fig. 2).
func MinimizeProgram(p *Program, opts MinimizeOptions) (*Program, minimize.Trace, error) {
	return minimize.Program(context.Background(), p, opts)
}

// ChaseApply computes [P, T](d), the combined program/tgd closure of
// Section VIII, within the budget.
func ChaseApply(p *Program, tgds []ast.TGD, d *Database, budget Budget) (chase.Result, error) {
	return chase.Apply(p, tgds, d, budget)
}

// SATModelsContained decides SAT(T) ∩ M(P₁) ⊆ M(P₂) (Section VIII).
func SATModelsContained(p1 *Program, tgds []ast.TGD, p2 *Program, budget Budget) (Verdict, error) {
	return chase.SATModelsContained(p1, tgds, p2, budget)
}

// PreserveCheck runs the Fig. 3 preservation procedure of Section IX.
func PreserveCheck(p *Program, tgds []ast.TGD, opts PreserveOptions) (Verdict, *preserve.Counterexample, error) {
	return preserve.Check(p, tgds, opts)
}

// EquivOptimize runs the Section XI optimization under plain equivalence.
func EquivOptimize(p *Program, opts EquivOptions) (*Program, []equivopt.Removal, error) {
	return equivopt.Optimize(context.Background(), p, opts)
}

// MagicRewrite performs the magic-sets transformation for a query atom.
func MagicRewrite(p *Program, query Atom) (*magic.Rewritten, error) {
	return magic.Rewrite(p, query)
}

// MagicAnswer answers a query via the magic-sets rewriting.
func MagicAnswer(p *Program, edb *Database, query Atom, _ EvalOptions) ([][]Const, magic.Stats, error) {
	return magic.Answer(p, edb, query)
}

// DirectAnswer answers a query by full evaluation plus filtering.
func DirectAnswer(p *Program, edb *Database, query Atom, _ EvalOptions) ([][]Const, magic.Stats, error) {
	return magic.DirectAnswer(p, edb, query)
}

// RemoveUnreachable prunes rules that cannot contribute to queryPred.
func RemoveUnreachable(p *Program, queryPred string) *Program {
	return rewrite.RemoveUnreachable(p, queryPred)
}

// RemoveUnfounded prunes rules that can never fire on any EDB input.
func RemoveUnfounded(p *Program) *Program {
	return rewrite.RemoveUnfounded(p)
}

// PipelineOptions selects the passes OptimizeForQuery runs. Each pass is off
// unless its field is set: the zero value runs none and returns a clone of
// the program. DefaultPipeline sets every field.
type PipelineOptions struct {
	// Minimize runs Fig. 2 minimization.
	Minimize bool
	// EquivOpt runs the Section XI optimization under plain equivalence.
	EquivOpt bool
	// Prune removes unfounded rules and rules unreachable from the query.
	Prune bool
	// Magic applies the magic-sets rewriting for the query as the final
	// step.
	Magic bool
}

// DefaultPipeline enables every pass.
func DefaultPipeline() PipelineOptions {
	return PipelineOptions{Minimize: true, EquivOpt: true, Prune: true, Magic: true}
}

// PipelineResult reports what OptimizeForQuery did.
type PipelineResult struct {
	// Program is the optimized program. When Magic ran it is the rewritten
	// program and Rewritten is non-nil; evaluate it over the EDB plus
	// Rewritten.Seed and read answers from Rewritten.Query.
	Program *Program
	// Rewritten is the magic transformation output (nil if Magic was off).
	Rewritten *magic.Rewritten
	// RulesRemoved counts rules dropped by pruning and minimization.
	RulesRemoved int
	// AtomsRemoved counts body atoms dropped by minimization and the
	// equivalence optimizer.
	AtomsRemoved int
}

// OptimizeForQuery runs the repository's full optimization pipeline for a
// query: unfounded/unreachable pruning, Fig. 2 minimization, the
// Section XI equivalence optimization, and the magic-sets rewriting — the
// composition the paper's introduction motivates ("removing redundant
// parts can only speed up the [magic set] computation"). Every pass but
// Section XI's takes stratified negation; on a program with a negated
// literal that pass is skipped, not refused.
func OptimizeForQuery(p *Program, query Atom, opts PipelineOptions) (*PipelineResult, error) {
	cur := p.Clone()
	res := &PipelineResult{}

	if opts.Prune {
		before := len(cur.Rules)
		cur = rewrite.RemoveUnfounded(cur)
		cur = rewrite.RemoveUnreachable(cur, query.Pred)
		res.RulesRemoved += before - len(cur.Rules)
	}
	if opts.Minimize {
		min, trace, err := minimize.Program(context.Background(), cur, minimize.Options{})
		if err != nil {
			return nil, err
		}
		cur = min
		res.RulesRemoved += trace.RulesRemoved()
		res.AtomsRemoved += trace.AtomsRemoved()
	}
	if opts.EquivOpt && !cur.HasNegation() {
		opt, removals, err := equivopt.Optimize(context.Background(), cur, equivopt.Options{})
		if err != nil {
			return nil, err
		}
		cur = opt
		for _, r := range removals {
			res.AtomsRemoved += len(r.Atoms)
		}
	}
	if opts.Magic {
		rw, err := magic.Rewrite(cur, query)
		if err != nil {
			return nil, err
		}
		res.Rewritten = rw
		res.Program = rw.Program
		return res, nil
	}
	res.Program = cur
	return res, nil
}
