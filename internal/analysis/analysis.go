// Package analysis is a multi-pass static analyzer for Datalog programs.
// The optimization procedures of the paper assume their input is
// well-formed — safe, range-restricted, stratifiable — and the evaluator
// discovers violations only as wrong fixpoints or hard errors; this package
// finds them (and a family of cheap, purely syntactic optimization
// opportunities) before anything runs, reporting each as a positioned
// Diagnostic with a stable code.
//
// A Pass consumes a Context — the parsed program plus shared computed facts
// (the dependence graph, per-predicate usage, atom occurrence sites) — and
// emits diagnostics. Passes never mutate the program and are independent:
// each tolerates input that other passes reject, so a single run reports
// everything at once. The same machinery backs three surfaces: the
// `datalog vet` subcommand, the server's /vet, and the θ-subsumption fast path
// the containment sessions use to skip chases (internal/chase).
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/parser"
)

// Severity classifies a finding. Errors make `datalog vet` exit nonzero;
// warnings flag likely bugs or redundancy; infos are observations.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity in vet's lowercase style.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic codes. These are stable identifiers: golden files, editors and
// suppression comments key on them, so codes are never renumbered — only
// appended.
const (
	// CodeParse: the source does not parse (reported by the vet surface,
	// which has no Context to run passes over).
	CodeParse = "DL0000"
	// CodeUnboundHead: a head variable is not bound by the positive body
	// (range restriction, Section II).
	CodeUnboundHead = "DL0001"
	// CodeUnsafeNegation: a variable of a negated atom is not bound by the
	// positive body.
	CodeUnsafeNegation = "DL0002"
	// CodeArity: a predicate is used with two different arities.
	CodeArity = "DL0003"
	// CodeConstType: one predicate column mixes integer and symbolic
	// constants.
	CodeConstType = "DL0004"
	// CodeNotStratifiable: negation through recursion, with the witness
	// cycle.
	CodeNotStratifiable = "DL0005"
	// CodeUnderivable: a derived predicate no rule chain can ever populate
	// from the source's facts.
	CodeUnderivable = "DL0006"
	// CodeUnusedPred: a predicate (facts or derived) nothing reads.
	CodeUnusedPred = "DL0007"
	// CodeSingletonVar: a named variable occurring exactly once in a rule.
	CodeSingletonVar = "DL0008"
	// CodeCartesianProduct: body atoms sharing no variables, directly or
	// transitively — an unconstrained join.
	CodeCartesianProduct = "DL0009"
	// CodeDuplicateRule: two rules identical up to variable renaming.
	CodeDuplicateRule = "DL0010"
	// CodeSubsumedRule: a rule θ-subsumed by another; deleting it preserves
	// uniform equivalence.
	CodeSubsumedRule = "DL0011"
	// CodeTGDCandidate: a tgd measured against Section XI's candidate
	// properties 1–3.
	CodeTGDCandidate = "DL0012"
	// CodeTerminationClass: the chase-termination class of the rule + tgd
	// set (weakly-acyclic, jointly-acyclic, sticky or weakly-sticky).
	CodeTerminationClass = "DL0013"
	// CodeNotWeaklyAcyclic: a position-graph cycle through a special
	// (existential) edge, with the witness cycle.
	CodeNotWeaklyAcyclic = "DL0014"
	// CodeMarkedJoin: a sticky-marking join violation — a marked variable
	// occurring more than once in one dependency body.
	CodeMarkedJoin = "DL0015"
	// CodeDivergent: the set falls outside every decidable termination
	// class; chase budgets are load-bearing.
	CodeDivergent = "DL0016"
)

// RelatedPos points a diagnostic at a second location — the other half of a
// conflict, the subsuming rule, the first arity occurrence.
type RelatedPos struct {
	Pos     ast.Pos
	Message string
}

// Diagnostic is one finding: a stable code, a severity, the position it
// anchors to (zero when unknown), a message, and related positions. Pass
// names the analysis pass that produced it (filled in by Run).
type Diagnostic struct {
	Code     string
	Severity Severity
	Pos      ast.Pos
	Message  string
	Related  []RelatedPos
	Pass     string
}

// String renders "line:col: severity: message [CODE]" (the position is
// omitted when unknown).
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.Pos.IsValid() {
		sb.WriteString(d.Pos.String())
		sb.WriteString(": ")
	}
	fmt.Fprintf(&sb, "%s: %s [%s]", d.Severity, d.Message, d.Code)
	return sb.String()
}

// Pass is one analysis: a name for -json output and debugging, and the run
// function.
type Pass struct {
	Name string
	Run  func(*Context) []Diagnostic
}

// Passes returns the full pass list in execution order. The slice is fresh
// per call; callers may filter it.
func Passes() []Pass {
	return []Pass{
		{"safety", runSafety},             // range restriction and negated-atom safety (DL0001, DL0002)
		{"stratify", runStratify},         // negation through recursion, with witness cycle (DL0005)
		{"arity", runArity},               // per-predicate arity and constant-type consistency (DL0003, DL0004)
		{"reachability", runReachability}, // underivable and unused predicates (DL0006, DL0007)
		{"singleton", runSingleton},       // variables occurring exactly once in a rule (DL0008)
		{"product", runProduct},           // cartesian-product joins between body atom groups (DL0009)
		{"subsumption", runSubsumption},   // duplicate and θ-subsumed rules (DL0010, DL0011)
		{"tgdcheck", runTGDCheck},         // tgd sanity against Section XI candidate properties 1–3 (DL0012)
		{"termination", runTermination},   // chase-termination class of the rule + tgd set (DL0013–DL0016)
	}
}

// Analyze runs every pass over a parsed source (typically from
// parser.ParseLoose, so ill-formed programs are analyzed rather than
// rejected) and returns the combined diagnostics in position order.
func Analyze(res *parser.Result) []Diagnostic {
	return Run(NewContext(res), Passes())
}

// Run executes the given passes over one context and sorts the combined
// findings.
func Run(c *Context, passes []Pass) []Diagnostic {
	var out []Diagnostic
	for _, p := range passes {
		ds := p.Run(c)
		for i := range ds {
			if ds[i].Pass == "" {
				ds[i].Pass = p.Name
			}
		}
		out = append(out, ds...)
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders findings by position (unknown last), then code,
// then message — the stable order golden files rely on.
func SortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos.Before(ds[j].Pos)
		}
		if ds[i].Code != ds[j].Code {
			return ds[i].Code < ds[j].Code
		}
		return ds[i].Message < ds[j].Message
	})
}

// HasErrors reports whether any finding has Error severity — the vet exit
// condition.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}
