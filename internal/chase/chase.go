// Package chase implements the paper's decision procedures built on the
// chase process:
//
//   - uniform containment of pure Datalog programs (Section VI): P₂ ⊑ᵘ P₁
//     iff for every rule h :- b of P₂, the frozen head h·θ belongs to
//     P₁(b·θ), where θ maps the rule's variables to distinct fresh
//     constants (Corollary 2). This test always terminates. A program with
//     stratified negation is tested through an encoding (Section XII) that
//     can prove a containment but not refute one.
//   - the combined application [P, T] of a program and a set of tgds
//     (Section VIII), which underlies the relative test
//     SAT(T) ∩ M(P₁) ⊆ M(P₂). With embedded tgds the chase may not
//     terminate, so these procedures take a Budget and return a
//     three-valued Verdict, matching the paper's advice to "spend on
//     optimization a predetermined amount of time" (Section XI).
package chase

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
)

// Verdict is the outcome of a chase-based test that may be cut off by a
// resource budget.
type Verdict int

const (
	// Unknown means the test did not resolve: a budget was exhausted, or a
	// containment test under negation, which can prove but not refute
	// (Checker.Contains), found no proof.
	Unknown Verdict = iota
	// Yes means the property was proved.
	Yes
	// No means the property was refuted (a finite counterexample chase
	// reached its fixpoint without establishing the goal).
	No
)

// And is the verdict of a conjunction of two tested properties: No if
// either is refuted, Yes if both are proved, Unknown otherwise.
func (v Verdict) And(w Verdict) Verdict {
	if v == Yes || w == No {
		return w
	}
	return v
}

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// Budget bounds a potentially diverging chase. The zero value means
// DefaultBudget.
type Budget struct {
	// MaxAtoms bounds the number of ground atoms (nulls included) in the
	// chase DB.
	MaxAtoms int
	// MaxRounds bounds the number of alternations between the Datalog
	// fixpoint and a tgd-application round.
	MaxRounds int
}

// ErrNegation is returned, possibly wrapped, by the tests of Section VIII —
// SATContainsRule, SATModelsContained and the [P, T] chase — when a program
// or rule uses negation. Uniform containment is not refused: a Checker
// decides a program with negation through an encoding that can prove a
// containment but not refute one, so Checker.Contains answers Yes or
// Unknown there.
var ErrNegation = errors.New("chase: uniform containment is defined for pure Datalog; program or rule uses negation")

// DefaultBudget is generous enough for every example in the paper and every
// workload in the experiment suite.
var DefaultBudget = Budget{MaxAtoms: 100000, MaxRounds: 10000}

// OrDefault fills zero fields from DefaultBudget.
func (b Budget) OrDefault() Budget {
	if b.MaxAtoms == 0 {
		b.MaxAtoms = DefaultBudget.MaxAtoms
	}
	if b.MaxRounds == 0 {
		b.MaxRounds = DefaultBudget.MaxRounds
	}
	return b
}

// FreezeRule instantiates the variables of r to distinct frozen constants
// and returns the frozen head and the frozen body as a database — the
// canonical DB of Section VI. The constants are r.Freeze's (variables
// numbered in first-occurrence order, head first), but no binding map or
// ground atom is built on the way: every containment test freezes its
// candidate afresh, so the body goes straight from one buffer into the
// database. A negated literal !Q(t̄) freezes as a fact of the encoding's
// extensional predicate neg@Q (see NewCheckerIn).
func FreezeRule(r ast.Rule) (ast.GroundAtom, *db.Database) {
	n := len(r.Head.Args)
	for _, a := range r.Body {
		n += len(a.Args)
	}
	for _, a := range r.NegBody {
		n += len(a.Args)
	}
	// names[i] freezes to consts[i]; buf holds the head's arguments, then
	// each body tuple in turn.
	names := make([]string, 0, n)
	consts := make([]ast.Const, 0, n)
	buf := make([]ast.Const, n)
	gen := ast.NewFrozenGen()
	freeze := func(a ast.Atom, args []ast.Const) []ast.Const {
		for j, t := range a.Args {
			if !t.IsVar {
				args[j] = t.Val
				continue
			}
			i := slices.Index(names, t.Name)
			if i < 0 {
				i = len(names)
				names = append(names, t.Name)
				consts = append(consts, gen.Fresh())
			}
			args[j] = consts[i]
		}
		return args[:len(a.Args)]
	}
	head := ast.GroundAtom{Pred: r.Head.Pred, Args: freeze(r.Head, buf)}
	d := db.New()
	off := len(head.Args)
	for _, a := range r.Body {
		d.AddTuple(a.Pred, freeze(a, buf[off:]))
		off += len(a.Args)
	}
	for _, a := range r.NegBody {
		d.AddTuple(negPrefix+a.Pred, freeze(a, buf[off:]))
		off += len(a.Args)
	}
	return head, d
}

// Checker is a containment session: one containing program, prepared once,
// serving many chase-based tests against it. It caches the prepared
// evaluation schedule, the goal cone of every head predicate it has been
// asked about, and — for the exact uniform-containment test — the per-rule
// verdicts, so the Fig. 1/2 minimization loops pay for program analysis once
// per phase instead of once per candidate. Each test freezes its own rule.
// Every test evaluates toward the frozen head as a goal and halts the moment
// it is derived, rather than saturating the full fixpoint (Corollary 2 only
// asks whether the head is derivable); the uniform-containment test also
// runs only the rules that can take part in a derivation of that head (see
// coneMask).
//
// Prepared plans come from the shared content-addressed plan cache.
// ContainsRuleMasked decides a rule against the session program with some of
// its rules switched off, on the same plan, so the Fig. 2 rule phase tests
// every candidate P − S − {r} in one session. Its verdict is stored under
// the subprogram's own content address: every verdict in the store was
// computed by a run on its own program.
//
// A program with stratified negation is decided through its encoding (see
// NewCheckerIn): a true answer is sound for stratified semantics, a false
// one only means "not shown", and Contains reports it as Unknown. The
// [P, T] chase and the tests built on it refuse negation with ErrNegation
// instead.
//
// Every test that can run a chase takes the caller's context first: internal
// evaluations thread it to the emit path and every chase round checks it, so
// a deadline cuts a diverging chase promptly with an error wrapping
// eval.ErrCanceled. Cancellation never poisons shared state: verdicts and
// plans are only published for completed work, so the session — and the
// shared verdict store — stay valid for later calls under a live context.
//
// A Checker is not safe for concurrent use (its memo tables are unlocked).
type Checker struct {
	// Lineage is the cumulative stats, shared by value with any session
	// built in the same lineage.
	eval.Lineage
	prog *ast.Program
	// canon is the program's canonical form — the session's content address
	// into the plan and verdict caches — one newline-terminated line per
	// rule; rule i's line ends at ends[i], so a masked test addresses its
	// subprogram without re-rendering a rule.
	canon string
	ends  []int
	prep  *eval.Prepared
	// pv is the shared verdict table for this program content address,
	// resolved once so each test keys only by the rule's canonical form.
	pv *progVerdicts
	// ruleKey and progKey are the scratch buffers a test appends its rule's
	// key and, under a mask, its subprogram's key into.
	ruleKey, progKey []byte
	// cones memoizes, per head predicate, the mask of the rules outside its
	// goal cone (nil when every rule is inside); coneBuf is the scratch a
	// caller's mask is ORed into (coneMask).
	cones   map[string][]bool
	coneBuf []bool
	// graph is the dependence graph of the program the plan runs, built with
	// the first cone.
	graph *depgraph.Graph
	// neg reports that the program has negation, so the plan runs its
	// encoding, Contains reports a miss as Unknown and the [P, T] tests
	// refuse it.
	neg bool
	// noSyntactic disables the θ-subsumption fast path, forcing each fresh
	// verdict through the chase (memoized verdicts are still reused).
	// noTermination disables the termination classifier: no derived budgets,
	// and a full set is chased like an embedded one — lowered, alternating
	// with the session program — rather than as the one phase of P ∪ rules(T);
	// every chase runs under the caller's (or default) budget. Both are the oracle
	// arms of this package's tests and ablation benchmark, which set them
	// directly; nothing outside the package can.
	noSyntactic, noTermination bool
	// tgdMemos holds a tgdMemo per tgd set, keyed by appendTGDSetKey (the
	// session program is fixed, so the key omits it); tgdKey is the scratch
	// buffer a lookup renders the key into.
	tgdMemos map[string]*tgdMemo
	tgdKey   []byte
}

// tgdMemo is what a Checker keeps of one tgd set, built when a chase first
// needs it — the minimization loops re-chase one tgd set against many
// candidate rules: the termination classification of running the session
// program together with the set (depgraph.ClassifyTGDs), and the two halves
// of its TGDs.Chase rounds. An embedded set's phase runs the session program
// and its tgd round the set lowered onto the join kernel (LowerTGDs); a full
// set's phase runs the combined program P ∪ rules(T) and its tgd round
// nothing.
type tgdMemo struct {
	cl      depgraph.Classification
	phase   *eval.Prepared
	lowered *TGDs
}

// NewChecker prepares p as the containing program of a session, reusing a
// cached plan for any canonically equal program seen before. A program with
// negation must be stratifiable; its session runs the encoding described
// at NewCheckerIn.
func NewChecker(p *ast.Program) (*Checker, error) {
	return NewCheckerIn(p, eval.NewLineage())
}

// NewCheckerIn is NewChecker inside an existing lineage: the session
// accumulates into the lineage's stats.
//
// A program with stratified negation is decided in the conservative style of
// the extension the paper's conclusion announces (Section XII): its plan
// runs the pure-Datalog encoding in which each negated literal !Q(t̄) is the
// atom neg@Q(t̄) over a fresh extensional predicate, and FreezeRule freezes a
// tested rule's negated literals the same way. A derivation in the encoding
// relies only on negation checks the tested rule's own firing guarantees, so
// a true answer holds for stratified semantics when the predicates the rule
// negates are defined alike on both sides (see ContainsRule and Contains);
// containments that need reasoning about negation (a Q ∨ ¬Q case split) are
// not found. The plan and the verdicts live under the encoding's canonical
// form, never the program's: the program's own address holds its
// stratified plan. A pure program is neither encoded nor copied.
func NewCheckerIn(p *ast.Program, lin eval.Lineage) (*Checker, error) {
	run := p
	if p.HasNegation() {
		if err := depgraph.Build(p).Stratified(); err != nil {
			return nil, err
		}
		var err error
		if run, err = encodeNegation(p); err != nil {
			return nil, err
		}
	}
	c := &Checker{Lineage: lin, ends: make([]int, len(run.Rules)), neg: run != p}
	buf := make([]byte, 0, 64*len(run.Rules))
	for i, r := range run.Rules {
		buf = append(r.AppendCanonical(buf), '\n')
		c.ends[i] = len(buf)
	}
	c.canon = string(buf)
	c.pv = defaultVerdicts.forProgram(buf)
	c.progKey = buf[:0]
	var built *eval.Prepared
	prep, err := c.Prepare(c.canon, func() (_ *eval.Prepared, err error) {
		built, err = eval.Prepare(run)
		return built, err
	})
	if err != nil {
		return nil, err
	}
	c.prep = prep
	// Keep the caller's rules rather than whatever program the plan was
	// built from: a cache hit may return a plan for an alpha-renamed twin,
	// the plan of an encoding runs other rules, and ContainsRuleMasked's mask
	// indexes the rules the caller names. When the plan is the one built
	// here from p itself, its program is already a private copy of p.
	if prep == built && !c.neg {
		c.prog = prep.Program()
	} else {
		c.prog = p.Clone()
	}
	return c, nil
}

// negPrefix marks the encoded positive stand-ins for negated literals. The
// '@' cannot appear in parsed predicate names, so encodings never collide
// with user predicates.
const negPrefix = "neg@"

// encodeNegation is p with each rule's negated literals !Q(t̄) appended to
// its positive body as atoms neg@Q(t̄), in order. A predicate that already
// carries the prefix has no place in the encoding.
func encodeNegation(p *ast.Program) (*ast.Program, error) {
	out := ast.NewProgram()
	out.Rules = make([]ast.Rule, len(p.Rules))
	for i, r := range p.Rules {
		for _, atoms := range r.Atoms() {
			for _, a := range atoms {
				if strings.HasPrefix(a.Pred, negPrefix) {
					return nil, fmt.Errorf("chase: predicate %s collides with the negation encoding", a.Pred)
				}
			}
		}
		body := append(make([]ast.Atom, 0, len(r.Body)+len(r.NegBody)), r.Body...)
		for _, a := range r.NegBody {
			a.Pred = negPrefix + a.Pred
			body = append(body, a)
		}
		out.Rules[i] = ast.Rule{Head: r.Head, Body: body}
	}
	return out, nil
}

// Program returns the session's containing program. Callers must not
// mutate it.
func (c *Checker) Program() *ast.Program { return c.prog }

// coneMask is skip (nil or one entry per rule of Program()) with every rule
// outside the goal cone of pred switched off as well. The goal cone of a
// predicate (depgraph.Graph.Cone) is the rules whose head it depends on in
// the dependence graph of the program the plan runs, its own rules included: a derivation of a
// pred fact uses no other rule, so a goal run toward a pred atom reaches its
// goal under the wider mask exactly when it does under skip. The cone is computed over the whole
// program, so it holds the cone of every subprogram a mask selects. The
// result may be the session's scratch buffer, valid until the next call.
func (c *Checker) coneMask(pred string, skip []bool) []bool {
	out, ok := c.cones[pred]
	if !ok {
		if c.graph == nil {
			c.graph = depgraph.Build(c.prep.Program())
		}
		out = c.graph.Cone(pred)
		for i := range out {
			out[i] = !out[i]
		}
		if !slices.Contains(out, true) {
			out = nil
		}
		if c.cones == nil {
			c.cones = make(map[string][]bool)
		}
		c.cones[pred] = out
	}
	switch {
	case out == nil:
		return skip
	case skip == nil:
		return out
	}
	c.coneBuf = append(c.coneBuf[:0], skip...)
	for i, off := range out {
		c.coneBuf[i] = c.coneBuf[i] || off
	}
	return c.coneBuf
}

// ContainsRule decides r ⊑ᵘ P for the session program P (Corollary 2),
// memoizing the verdict per rule in the program's content-addressed table —
// the verdict is semantic, invariant under variable renaming on both sides,
// so any session over a canonically equal program shares it.
//
// Under negation a true answer assumes that every predicate r negates has
// the goal cone in r's own program that it has in P, so that it has the same
// extent under both. Minimization meets this by construction: its candidate
// differs from P in one rule or atom above the strata r negates. A caller
// testing a rule of another program goes through Contains, which checks it.
func (c *Checker) ContainsRule(ctx context.Context, r ast.Rule) (bool, error) {
	return c.ContainsRuleMasked(ctx, r, nil)
}

// ContainsRuleMasked decides r ⊑ᵘ P − S, where S is the rules i of
// Program() with skip[i] set (skip is nil, masking nothing, or has one entry
// per rule). The chase is the session plan run with S — and every rule
// outside the goal cone of r's head predicate (coneMask) — switched off
// (eval.Prepared.RunMasked), and the verdict is looked up and stored under
// the canonical form of P − S, so it lands where a session opened over P − S
// would find it. The cone never enters the key: it changes which rules run,
// not the answer.
func (c *Checker) ContainsRuleMasked(ctx context.Context, r ast.Rule, skip []bool) (bool, error) {
	if err := eval.CtxErr(ctx); err != nil {
		return false, err
	}
	pv := c.pv
	if skip != nil {
		if len(skip) != len(c.prog.Rules) {
			return false, fmt.Errorf("chase: mask of %d entries for %d rules", len(skip), len(c.prog.Rules))
		}
		c.progKey = c.progKey[:0]
		for i, end := range c.ends {
			if !skip[i] {
				start := 0
				if i > 0 {
					start = c.ends[i-1]
				}
				c.progKey = append(c.progKey, c.canon[start:end]...)
			}
		}
		pv = defaultVerdicts.forProgram(c.progKey)
	}
	c.ruleKey = r.AppendCanonical(c.ruleKey[:0])
	ckey := c.ruleKey
	if contained, hit := pv.get(ckey); hit {
		c.Tally().VerdictsReused++
		return contained, nil
	}
	if c.syntacticVerdict(r, skip) {
		c.Tally().VerdictsSubsumed++
		pv.put(ckey, true)
		return true, nil
	}
	head, body := FreezeRule(r)
	_, reached, est, err := c.prep.RunMasked(ctx, body, &head, 0, c.coneMask(r.Head.Pred, skip))
	c.Tally().Add(est)
	if err != nil {
		return false, err
	}
	c.Tally().VerdictsRecomputed++
	pv.put(ckey, reached)
	return reached, nil
}

// syntacticVerdict decides r ⊑ᵘ P − S (S masked by skip, as in
// ContainsRuleMasked) without a chase when the verdict is
// forced by the syntax alone — the move sticky-Datalog± optimizers make by
// classifying programs syntactically before running semantic tests. Two
// shapes force a positive verdict:
//
//   - r's head occurs among its own body atoms: the frozen head is in the
//     frozen body, and every program's output contains its input.
//   - some rule s of P θ-subsumes r: the frozen body of r contains
//     s.Body·θ frozen, so one application of s derives r's frozen head —
//     exactly Corollary 2's test, decided in the affirmative by a
//     single-step derivation.
//
// A miss means nothing: uniform containment is semantic, so the caller
// falls through to the chase.
func (c *Checker) syntacticVerdict(r ast.Rule, skip []bool) (forced bool) {
	if c.noSyntactic {
		return false
	}
	for _, a := range r.Body {
		if a.Equal(r.Head) {
			return true
		}
	}
	for i, s := range c.prog.Rules {
		if (skip == nil || !skip[i]) && ast.SubsumesRule(s, r) {
			return true
		}
	}
	return false
}

// Contains decides P₂ ⊑ᵘ P for the session program P, rule by rule: Yes
// with witness -1, or the verdict with the index of the first rule of p2 not
// shown contained. It is the one place that decides what such a miss means.
// Without negation on either side the test is exact (Proposition 2,
// Corollary 2) and the miss is No. Otherwise the encoding (NewCheckerIn)
// can prove a containment but not refute one, and the miss is Unknown.
//
// Across programs a negated literal needs more than the encoding: r's
// firing guarantees ¬Q(c̄) in P₂(d), and the test reads it as ¬Q(c̄) in
// P(d). So a rule of p2 that negates a predicate Q is shown only when Q's
// goal cone (depgraph.Graph.Cone) is the same set of canonical rules in P
// and p2 — then Q has the same extent under both programs on every input —
// and is otherwise not shown. A rule without negated literals is tested as
// is.
func (c *Checker) Contains(ctx context.Context, p2 *ast.Program) (Verdict, int, error) {
	miss := No
	if c.neg || p2.HasNegation() {
		miss = Unknown
	}
	var g1, g2 *depgraph.Graph
	for i, r := range p2.Rules {
		if len(r.NegBody) > 0 {
			if g1 == nil {
				g1, g2 = depgraph.Build(c.prog), depgraph.Build(p2)
			}
			for _, a := range r.NegBody {
				if coneRules(c.prog, g1, a.Pred) != coneRules(p2, g2, a.Pred) {
					return miss, i, nil
				}
			}
		}
		ok, err := c.ContainsRule(ctx, r)
		if err != nil {
			return Unknown, i, err
		}
		if !ok {
			return miss, i, nil
		}
	}
	return Yes, -1, nil
}

// coneRules renders the goal cone of pred in p (g is p's dependence graph)
// as a set: its rules' canonical forms, sorted, one a line, without repeats.
func coneRules(p *ast.Program, g *depgraph.Graph, pred string) string {
	var rules []string
	for i, in := range g.Cone(pred) {
		if in {
			rules = append(rules, p.Rules[i].CanonicalString())
		}
	}
	slices.Sort(rules)
	return strings.Join(slices.Compact(rules), "\n")
}

// UniformlyContains decides P₂ ⊑ᵘ P₁ (p1 uniformly contains p2): for every
// input DB over both programs' predicates, P₂'s output is contained in
// P₁'s. By Proposition 2 this is M(P₁) ⊆ M(P₂), checked rule by rule. It is
// the one-shot form of Checker.Contains, whose verdict and witness it
// returns: exact on pure Datalog, Yes or Unknown under stratified negation.
func UniformlyContains(p1, p2 *ast.Program) (Verdict, int, error) {
	c, err := NewChecker(p1)
	if err != nil {
		return Unknown, 0, err
	}
	return c.Contains(context.Background(), p2)
}

// UniformlyEquivalent decides P₁ ≡ᵘ P₂, both directions of UniformlyContains
// joined by Verdict.And; a refuted first direction skips the second.
func UniformlyEquivalent(p1, p2 *ast.Program) (Verdict, error) {
	v, _, err := UniformlyContains(p1, p2)
	if err != nil || v == No {
		return v, err
	}
	w, _, err := UniformlyContains(p2, p1)
	return v.And(w), err
}

// Result carries the outcome of a combined [P, T] chase.
type Result struct {
	// DB is the chase database when the chase completed (fixpoint reached)
	// or the partial database when the budget ran out.
	DB *db.Database
	// Complete reports whether DB is a [P, T] fixpoint: closed under the
	// program's rules with every tgd satisfied. A goal-directed chase that
	// stops early still reports Complete truthfully — true exactly when the
	// partial database happens to be the fixpoint already.
	Complete bool
	// Rounds is the number of rounds of TGDs.Chase — a Datalog phase, then
	// a tgd round — whose phase ran to its end. A full set's chase is one
	// round, its one phase over P ∪ rules(T), which counts even when the
	// budget cuts it.
	Rounds int
	// Class is the termination classification of the rule + tgd set the
	// chase ran under (depgraph.TermUnclassified when the analysis was
	// disabled). With Complete=false it tells budget exhaustion on a
	// provably-terminating set (impossible under the derived bound) apart
	// from a divergence-capable shape where the cutoff is load-bearing.
	Class depgraph.TerminationClass
}

// Apply computes [P, T](d): the closure of d under both the rules of p and
// the tgds of T (Section VIII), applying embedded tgds with fresh labeled
// nulls. The input database is not modified. When the budget runs out the
// partial database is returned with Complete=false.
func Apply(p *ast.Program, tgds []ast.TGD, d *db.Database, budget Budget) (Result, error) {
	c, err := NewChecker(p)
	if err != nil {
		return Result{}, err
	}
	return c.Apply(context.Background(), tgds, d, budget)
}

// Chase runs the combined chase of Section VIII over the tgd set ts from d:
// rounds that alternate a Datalog phase with a tgd round, until a round adds
// nothing (No: the database is the fixpoint), the goal is derived (Yes) or
// the budget runs out (Unknown). It is the one loop of the [P, T] chase and of
// Fig. 3's preservation test, which differ in their phase alone.
//
// phase runs a round's Datalog step on the chase database, room being the
// atoms the budget has left: it returns the database the round goes on with —
// the tgd round adds to it in place — and whether the goal was reached; an
// error wrapping eval.ErrBudget cuts the chase with Unknown. After each tgd
// round a non-nil goal is looked up as well. budget is used as given, its
// zero fields already filled by the caller. ctx is checked at the start of
// every round (both halves also poll mid-way), and the tgd rounds' joins and
// the facts they add land in st (Firings, Added).
//
// The result is Complete only with No: what closure under the phase means
// is the caller's to say. Rounds counts the rounds whose phase ran to its
// end, and DB is d itself when none did.
func (ts *TGDs) Chase(ctx context.Context, d *db.Database, goal *ast.GroundAtom, budget Budget, phase func(ctx context.Context, d *db.Database, room int) (*db.Database, bool, error), st *eval.Stats) (Result, Verdict, error) {
	cur := d
	_, maxNull := cur.MaxGeneratedIndexes()
	nullGen := ast.NewNullGen(maxNull + 1)
	for round := 0; round < budget.MaxRounds; round++ {
		if err := eval.CtxErr(ctx); err != nil {
			return Result{}, Unknown, err
		}
		out, reached, err := phase(ctx, cur, budget.MaxAtoms-cur.Len())
		if err != nil {
			if isBudgetErr(err) {
				return Result{DB: cur, Rounds: round}, Unknown, nil
			}
			return Result{}, Unknown, err
		}
		cur = out
		if reached {
			return Result{DB: cur, Rounds: round + 1}, Yes, nil
		}
		// Tgd round: fire every violated instantiation found against the
		// snapshot, re-checking before each firing (the restricted chase).
		added, err := ts.applyRound(ctx, cur, nullGen, st)
		st.Added += added
		if err != nil {
			return Result{}, Unknown, err
		}
		if goal != nil && cur.Has(*goal) {
			return Result{DB: cur, Rounds: round + 1}, Yes, nil
		}
		if added == 0 {
			return Result{DB: cur, Complete: true, Rounds: round + 1}, No, nil
		}
		if cur.Len() > budget.MaxAtoms {
			return Result{DB: cur, Rounds: round + 1}, Unknown, nil
		}
	}
	return Result{DB: cur, Rounds: budget.MaxRounds}, Unknown, nil
}

// Apply is the session form of the package-level Apply, reusing the
// prepared program across the chase's Datalog rounds.
func (c *Checker) Apply(ctx context.Context, tgds []ast.TGD, d *db.Database, budget Budget) (Result, error) {
	res, _, err := c.chaseToGoal(ctx, tgds, d, nil, budget)
	return res, err
}

// chaseToGoal runs the combined chase, optionally stopping early as soon as
// goal is derived. It returns the chase result plus the goal verdict: Yes if
// the goal was derived, No if the chase completed without deriving it,
// Unknown if the budget ran out first. With a nil goal the verdict is No on
// completion and Unknown otherwise. It is TGDs.Chase with a Datalog phase
// that runs one prepared program and pushes the goal into the evaluator's
// emit path, so a round halts mid-join the moment the goal is derived: the
// session's program for an embedded set, and for a full set the combined
// program P ∪ rules(T) — full tgds create no nulls, so [P, T](d) is its least
// fixpoint, one phase with no tgd round left to alternate with. A program
// with negation is refused with ErrNegation.
func (c *Checker) chaseToGoal(ctx context.Context, tgds []ast.TGD, d *db.Database, goal *ast.GroundAtom, budget Budget) (Result, Verdict, error) {
	if c.neg {
		return Result{}, Unknown, ErrNegation
	}
	m, err := c.memo(tgds)
	if err != nil {
		return Result{}, Unknown, err
	}
	prep, ts := m.phase, m.lowered
	budget = c.resolveBudget(d, budget, m.cl)
	res, v, err := ts.Chase(ctx, d, goal, budget, func(ctx context.Context, cur *db.Database, room int) (*db.Database, bool, error) {
		if room <= 0 {
			return nil, false, eval.ErrBudget
		}
		out, reached, est, err := prep.Run(ctx, cur, goal, room)
		c.Tally().Add(est)
		return out, reached, err
	}, c.Tally())
	if err != nil {
		return Result{}, Unknown, err
	}
	if res.DB == d {
		res.DB = d.Clone() // no phase ran: the result is not the caller's database
	}
	switch {
	case v == Yes:
		// A chase that found its goal stops with a partial database; this
		// makes the reported Complete flag truthful rather than a blanket
		// false.
		res.Complete = prep.IsClosed(res.DB) && ts.satisfies(res.DB, c.Tally())
	case v == Unknown && m.cl.Full && d.Len() < budget.MaxAtoms:
		res.Rounds = 1 // a full set's one phase is its round, even when the budget cuts it
	}
	res.Class = m.cl.Class
	return res, v, nil
}

// memo returns the session's tgdMemo for tgds, built on first use. The
// set's key is rendered into the session's scratch buffer; only a miss
// makes a string of it.
func (c *Checker) memo(tgds []ast.TGD) (*tgdMemo, error) {
	c.tgdKey = appendTGDSetKey(c.tgdKey[:0], tgds)
	if m := c.tgdMemos[string(c.tgdKey)]; m != nil {
		return m, nil
	}
	key := string(c.tgdKey)
	m := &tgdMemo{phase: c.prep, lowered: noTGDs}
	if !c.noTermination {
		m.cl = depgraph.ClassifyTGDs(c.prog.Rules, tgds)
	}
	if !m.cl.Full {
		m.lowered = LowerTGDs(tgds)
	} else if err := c.prepareFull(m, tgds); err != nil {
		return nil, err
	}
	if c.tgdMemos == nil {
		c.tgdMemos = make(map[string]*tgdMemo)
	}
	c.tgdMemos[key] = m
	return m, nil
}

// noTGDs is the empty lowered set: the tgd round of a full set's chase,
// whose tgds run as rules in its Datalog phase.
var noTGDs = LowerTGDs(nil)

// termBudgetCap mirrors the saturation cap of depgraph.DerivedBudget when
// folding the input database size into a derived atom bound.
const termBudgetCap = 1 << 60

// resolveBudget picks the chase limits. A caller's explicit budget is
// always honored — exhaustion under it stays indistinguishable from
// divergence — but the zero Budget{} of a set classified chase-terminating
// is replaced by the provable bound DerivedBudget computes (plus the input
// database's own atoms), so the chase runs to true fixpoint and Unknown can
// no longer mean "budget too small". A full set's chase is one round, which
// always ends, so its zero Budget{} bounds nothing. Each resolution is
// counted in the session stats as budget-free or budget-bounded.
func (c *Checker) resolveBudget(d *db.Database, budget Budget, cl depgraph.Classification) Budget {
	switch {
	case budget == (Budget{}) && cl.Full:
		c.Tally().ChasesBudgetFree++
		return Budget{MaxAtoms: termBudgetCap, MaxRounds: 1}
	case budget == (Budget{}) && cl.Class.ChaseTerminates():
		atoms, rounds := cl.DerivedBudget(len(d.Consts()))
		if atoms > termBudgetCap-d.Len() {
			atoms = termBudgetCap
		} else {
			atoms += d.Len()
		}
		c.Tally().ChasesBudgetFree++
		return Budget{MaxAtoms: atoms, MaxRounds: rounds}
	}
	c.Tally().ChasesBudgetBounded++
	if budget = budget.OrDefault(); cl.Full {
		budget.MaxRounds = 1
	}
	return budget
}

// appendTGDSetKey appends the memo key of a tgd set to dst: each tgd as
// TGD.String renders it, newline-terminated.
func appendTGDSetKey(dst []byte, tgds []ast.TGD) []byte {
	for _, t := range tgds {
		dst = append(appendAtoms(dst, t.Lhs), " -> "...)
		dst = append(appendAtoms(dst, t.Rhs), ".\n"...)
	}
	return dst
}

// appendAtoms appends a conjunction as ast.FormatAtoms renders it without a
// symbol table; an integer, the only constant a tgd usually holds, is
// rendered in place.
func appendAtoms(dst []byte, atoms []ast.Atom) []byte {
	for i, a := range atoms {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(append(dst, a.Pred...), '(')
		for j, t := range a.Args {
			if j > 0 {
				dst = append(dst, ", "...)
			}
			switch {
			case t.IsVar:
				dst = append(dst, t.Name...)
			case ast.IsInt(t.Val):
				dst = strconv.AppendInt(dst, int64(t.Val), 10)
			default:
				dst = append(dst, ast.FormatConst(t.Val, nil)...)
			}
		}
		dst = append(dst, ')')
	}
	return dst
}

// prepareFull sets m's phase to the combined program P ∪ rules(T) of a full
// tgd set, prepared through the session's plan cache.
func (c *Checker) prepareFull(m *tgdMemo, tgds []ast.TGD) (err error) {
	combined := ast.NewProgram()
	combined.Rules = append(combined.Rules, c.prog.Rules...)
	canon := []byte(c.canon)
	for _, t := range tgds {
		for _, r := range t.AsRules() {
			combined.Rules = append(combined.Rules, r)
			canon = append(r.AppendCanonical(canon), '\n')
		}
	}
	m.phase, err = c.Prepare(string(canon), func() (*eval.Prepared, error) {
		return eval.Prepare(combined)
	})
	return err
}

func isBudgetErr(err error) bool { return errors.Is(err, eval.ErrBudget) }

// SATContainsRule decides SAT(T) ∩ M(P) ⊆ M(r) for the session program P
// and a single rule r by the extended chase of Section VIII: freeze r's
// body, close it under [P, T], and look for the frozen head. Yes and No
// answers are exact; Unknown means the budget ran out (possible only when T
// has embedded tgds). The verdict is not memoized — it depends on the
// budget. The chase runs every rule of P: a tgd can produce facts of any
// predicate, so no goal cone of P alone bounds it. Negation on either side
// is refused with ErrNegation.
func (c *Checker) SATContainsRule(ctx context.Context, tgds []ast.TGD, r ast.Rule, budget Budget) (Verdict, error) {
	if c.neg || r.HasNegation() {
		return Unknown, ErrNegation
	}
	// M(P) ⊆ M(r) already forces SAT(T) ∩ M(P) ⊆ M(r) whatever T is, so a
	// syntactically forced uniform-containment verdict skips the [P, T]
	// chase too. The Section XI search probes many candidate programs that
	// differ from P in a single rule; every unchanged rule is subsumed by
	// itself, leaving only the changed rule for the chase.
	if c.syntacticVerdict(r, nil) {
		c.Tally().VerdictsSubsumed++
		return Yes, nil
	}
	head, d := FreezeRule(r)
	_, verdict, err := c.chaseToGoal(ctx, tgds, d, &head, budget)
	return verdict, err
}

// SATContainsRule is the one-shot form of Checker.SATContainsRule.
func SATContainsRule(p1 *ast.Program, tgds []ast.TGD, r ast.Rule, budget Budget) (Verdict, error) {
	if p1.HasNegation() || r.HasNegation() {
		return Unknown, ErrNegation
	}
	c, err := NewChecker(p1)
	if err != nil {
		return Unknown, err
	}
	return c.SATContainsRule(context.Background(), tgds, r, budget)
}

// SATModelsContained decides SAT(T) ∩ M(P) ⊆ M(p2) for the session program
// P, rule by rule. A single refuted rule refutes the whole containment;
// otherwise any budget-limited rule makes the answer Unknown. Negation on
// either side is refused with ErrNegation, even when p2 has no rules.
func (c *Checker) SATModelsContained(ctx context.Context, tgds []ast.TGD, p2 *ast.Program, budget Budget) (Verdict, error) {
	if c.neg || p2.HasNegation() {
		return Unknown, ErrNegation
	}
	verdict := Yes
	for _, r := range p2.Rules {
		v, err := c.SATContainsRule(ctx, tgds, r, budget)
		if err != nil || v == No {
			return v, err
		}
		verdict = verdict.And(v)
	}
	return verdict, nil
}

// SATModelsContained is the one-shot form of Checker.SATModelsContained.
func SATModelsContained(p1 *ast.Program, tgds []ast.TGD, p2 *ast.Program, budget Budget) (Verdict, error) {
	switch {
	case p1.HasNegation() || p2.HasNegation():
		return Unknown, ErrNegation
	case len(p2.Rules) == 0:
		return Yes, nil
	}
	c, err := NewChecker(p1)
	if err != nil {
		return Unknown, err
	}
	return c.SATModelsContained(context.Background(), tgds, p2, budget)
}
