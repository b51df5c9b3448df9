// Package core is the facade the binaries, the server, the examples and the
// benchmark call: it forwards the entry points they use, and nothing else.
// Callers still import the packages behind it (ast, db, chase, eval, …) for
// everything the facade does not name; a name no caller outside the package
// uses has no place here (TestStructure/one-facade).
//
// The library reproduces Yehoshua Sagiv, "Optimizing Datalog Programs"
// (PODS 1987):
//
//   - Parse / ParseProgram / ParseTGD / ParseLoose — the concrete Datalog
//     syntax.
//   - PrepareEval / Eval — bottom-up computation (Section III);
//     PrepareEval caches a program's evaluation plan for repeated use.
//   - NewContainmentChecker / UniformlyEquivalent — the decidable
//     containment test of Section VI, as a reusable session or one-shot.
//   - MinimizeRule / MinimizeProgram — the Figs. 1–2 minimization under
//     uniform equivalence (Section VII), for pure and stratified programs
//     alike.
//   - ChaseApply / SATModelsContained — the combined [P,T] chase of
//     Section VIII.
//   - PreserveCheck / PreserveCheckPreliminary — the Fig. 3 procedure and
//     condition (3′) of Sections IX–X, at any unfolding depth.
//   - EquivOptimize — the Section XI optimization under plain equivalence.
//   - MagicRewrite / MagicAnswer — the magic-sets evaluation method the
//     optimizations compose with; OptimizeForQuery composes them all.
//   - Analyze / ClassifyTGDs — the multi-pass static analyzer behind
//     `datalog vet` (safety, stratifiability, redundancy, tgd sanity) and
//     the chase-termination ladder.
//   - NewSession — a long-lived handle over one program version: its plan
//     plus one lazily built containment checker (service.go).
//
// A minimal session:
//
//	res, _ := core.Parse(`
//	    G(x, z) :- A(x, z).
//	    G(x, z) :- G(x, y), G(y, z), A(y, w).
//	    A(1, 2). A(2, 3).
//	`)
//	opt, removals, _ := core.EquivOptimize(res.Program, core.EquivOptions{})
//	prep, _ := core.PrepareEval(opt, core.EvalOptions{})
//	out, _, _ := prep.Eval(core.FromFacts(res.Facts))
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

// Re-exported core types.
type (
	// Program is a set of Datalog rules.
	Program = ast.Program
	// Rule is a single Horn clause.
	Rule = ast.Rule
	// Atom is an atomic formula.
	Atom = ast.Atom
	// TGD is a tuple-generating dependency.
	TGD = ast.TGD
	// GroundAtom is a fact.
	GroundAtom = ast.GroundAtom
	// Const is a constant value (integer, interned symbol, frozen constant,
	// or labeled null).
	Const = ast.Const
	// Database is a set of facts grouped into relations.
	Database = db.Database
	// ParseResult bundles the rules, facts, tgds and symbol table of a
	// parsed source.
	ParseResult = parser.Result
	// EvalStats reports evaluation work.
	EvalStats = eval.Stats
	// Budget bounds potentially diverging chases.
	Budget = chase.Budget
	// Verdict is a three-valued chase outcome (Yes / No / Unknown).
	Verdict = chase.Verdict
	// MinimizeOptions configures Figs. 1–2 minimization.
	MinimizeOptions = minimize.Options
	// MinimizeTrace records what minimization removed.
	MinimizeTrace = minimize.Trace
	// EquivOptions configures the Section XI equivalence optimizer.
	EquivOptions = equivopt.Options
	// EquivRemoval records one equivalence-preserving deletion.
	EquivRemoval = equivopt.Removal
	// MagicRewritten is the output of the magic-sets transformation.
	MagicRewritten = magic.Rewritten
	// PreserveCounterexample witnesses a preservation failure.
	PreserveCounterexample = preserve.Counterexample
	// Prepared is a program prepared once for repeated evaluation: the
	// dependence-graph schedule, compiled rules and index plans are cached
	// and every Prepared.Eval reuses them.
	Prepared = eval.Prepared
	// PreserveOptions configures one preservation check (depth and chase
	// budget) — the consolidated form of the former
	// PreservesNonRecursively/…AtDepth entry-point pairs.
	PreserveOptions = preserve.Options
	// Diagnostic is one static-analysis finding: a stable code, a severity,
	// a source position and a message (internal/analysis).
	Diagnostic = analysis.Diagnostic
	// TGDClassification is the full termination analysis of a rule + tgd
	// set: class, witnesses for the failed checks, and position ranks.
	TGDClassification = depgraph.Classification
)

// ContainmentChecker is a uniform-containment session over a fixed
// containing program: one prepared program serves every rule test, with
// frozen bodies and verdicts memoized. It is chase.Checker — whose tests take
// a context first — plus the one ctx-less spelling bench/ pins.
type ContainmentChecker struct{ *chase.Checker }

// ContainsRule decides r ⊑ᵘ P with no cancellation; a rule with negation is
// refused with chase.ErrNegation. Bench-pinned: bench/optimize.go calls
// ck.ContainsRule(r), and bench/ may only change in a [benchmark] PR; new
// code passes a context to the embedded Checker.
func (c ContainmentChecker) ContainsRule(r Rule) (bool, error) {
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
func Parse(src string) (*ParseResult, error) { return parser.Parse(src) }

// ParseProgram parses a source containing only rules.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// ParseTGD parses a single tuple-generating dependency.
func ParseTGD(src string) (TGD, error) { return parser.ParseTGD(src) }

// ParseLoose parses a source without validating the program or its tgds,
// so ill-formed input reaches Analyze instead of being rejected.
func ParseLoose(src string) (*ParseResult, error) { return parser.ParseLoose(src) }

// Analyze runs the full static-analysis pass list (safety, stratifiability,
// arity/type consistency, reachability, style and θ-subsumption checks —
// internal/analysis) over a parsed source and returns positioned
// diagnostics in source order. Pair it with ParseLoose so ill-formed
// programs are diagnosed rather than rejected at parse time.
func Analyze(res *ParseResult) []Diagnostic { return analysis.Analyze(res) }

// AnalysisHasErrors reports whether any diagnostic has Error severity —
// the condition under which `datalog vet` exits nonzero.
func AnalysisHasErrors(ds []Diagnostic) bool { return analysis.HasErrors(ds) }

// ClassifyTGDs runs the termination analysis of internal/depgraph over a
// program's rules and a tgd set: it builds the position dependency graph
// and walks the ladder weakly-acyclic → jointly-acyclic → sticky →
// weakly-sticky, returning the strongest class that holds plus the
// witnesses for the checks that failed. p may be nil (tgds alone).
func ClassifyTGDs(p *Program, tgds []TGD) TGDClassification {
	var rules []Rule
	if p != nil {
		rules = p.Rules
	}
	return depgraph.ClassifyTGDs(rules, tgds)
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return db.New() }

// FromFacts builds a database from facts.
func FromFacts(facts []GroundAtom) *Database { return db.FromFacts(facts) }

// EvalOptions is ignored: evaluation has no setting. It stays only because
// bench/ constructs it, and only a change to the benchmark may edit bench/.
type EvalOptions struct{}

// Eval computes P(input), the least model of p containing input
// (Section III). It is PrepareEval followed by one Prepared.Eval; callers
// evaluating the same program repeatedly should prepare once.
func Eval(p *Program, input *Database, _ EvalOptions) (*Database, EvalStats, error) {
	return eval.Eval(p, input)
}

// PrepareEval validates p once and caches its evaluation plan (SCC
// schedule, compiled rules, index needs); the returned Prepared evaluates
// any number of databases without re-planning and is safe for concurrent
// use. Plans are served from the process-wide content-addressed cache, so
// preparing a program canonically equal to one seen before is a lookup.
func PrepareEval(p *Program, _ EvalOptions) (*Prepared, error) {
	return eval.DefaultPlanCache.Prepare(p)
}

// PlanCacheStats reports the process-wide plan cache's hit/miss/eviction
// counters and current size.
func PlanCacheStats() eval.CacheStats {
	return eval.DefaultPlanCache.Stats()
}

// NewContainmentChecker opens a uniform-containment session whose
// containing program is p1: Checker.ContainsRule and Checker.Contains
// decide r ⊑ᵘ P₁ and P₂ ⊑ᵘ P₁ reusing one prepared program, memoized
// frozen bodies and memoized verdicts across calls;
// Checker.ContainsRuleMasked tests against P₁ minus some of its rules on the
// same plan. The test is exact, so a p1 with negation is refused with
// chase.ErrNegation (chase.NewChecker decides it conservatively).
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

// MinimizeRule minimizes one rule under uniform equivalence (Fig. 1).
func MinimizeRule(r Rule, opts MinimizeOptions) (Rule, MinimizeTrace, error) {
	return minimize.Rule(context.Background(), r, opts)
}

// MinimizeProgram minimizes a program under uniform equivalence (Fig. 2). A
// program with stratified negation is minimized through the negation
// encoding of its containment tests (internal/chase).
func MinimizeProgram(p *Program, opts MinimizeOptions) (*Program, MinimizeTrace, error) {
	return minimize.Program(context.Background(), p, opts)
}

// ChaseApply computes [P, T](d), the combined program/tgd closure of
// Section VIII, within the budget.
func ChaseApply(p *Program, tgds []TGD, d *Database, budget Budget) (chase.Result, error) {
	return chase.Apply(p, tgds, d, budget)
}

// SATModelsContained decides SAT(T) ∩ M(P₁) ⊆ M(P₂) (Section VIII).
func SATModelsContained(p1 *Program, tgds []TGD, p2 *Program, budget Budget) (Verdict, error) {
	return chase.SATModelsContained(p1, tgds, p2, budget)
}

// PreserveCheck runs the Fig. 3 preservation procedure of Section IX,
// generalized by opts.Depth to k-round blocks (Section X's closing remark).
func PreserveCheck(p *Program, tgds []TGD, opts PreserveOptions) (Verdict, *PreserveCounterexample, error) {
	return preserve.Check(p, tgds, opts)
}

// PreserveCheckPreliminary decides condition (3′) of Section X against the
// depth-opts.Depth preliminary DB.
func PreserveCheckPreliminary(p *Program, tgds []TGD, opts PreserveOptions) (Verdict, *PreserveCounterexample, error) {
	return preserve.CheckPreliminary(p, tgds, opts)
}

// EquivOptimize runs the Section XI optimization under plain equivalence.
func EquivOptimize(p *Program, opts EquivOptions) (*Program, []EquivRemoval, error) {
	return equivopt.Optimize(context.Background(), p, opts)
}

// MagicRewrite performs the magic-sets transformation for a query atom.
func MagicRewrite(p *Program, query Atom) (*MagicRewritten, error) {
	return magic.Rewrite(p, query)
}

// MagicAnswer answers a query via the magic-sets rewriting, for pure and
// stratified programs alike.
func MagicAnswer(p *Program, edb *Database, query Atom, _ EvalOptions) ([][]Const, magic.Stats, error) {
	return magic.Answer(p, edb, query)
}

// DirectAnswer answers a query by full evaluation plus filtering — the
// baseline against which magic evaluation is compared.
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
	Rewritten *MagicRewritten
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
