package analysis

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/equivopt"
)

// runSafety checks range restriction (every head variable bound by the
// positive body, DL0001) and negation safety (every variable of a negated
// atom bound by the positive body, DL0002) — the well-formedness
// assumptions of Section II that ast.Rule.Validate enforces, re-reported
// per variable with positions instead of a single rejection.
func runSafety(c *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range c.Program.Rules {
		bound := make(map[string]bool)
		for _, a := range r.Body {
			a.CollectVars(bound)
		}
		flagged := make(map[string]bool)
		for _, t := range r.Head.Args {
			if t.IsVar && !bound[t.Name] && !flagged[t.Name] {
				flagged[t.Name] = true
				out = append(out, Diagnostic{
					Code: CodeUnboundHead, Severity: Error, Pos: atomPos(r.Head, r),
					Message: fmt.Sprintf("head variable %s of the rule for %s is not bound by the positive body (range restriction)", t.Name, r.Head.Pred),
				})
			}
		}
		for _, a := range r.NegBody {
			for _, t := range a.Args {
				if t.IsVar && !bound[t.Name] && !flagged[t.Name] {
					flagged[t.Name] = true
					out = append(out, Diagnostic{
						Code: CodeUnsafeNegation, Severity: Error, Pos: atomPos(a, r),
						Message: fmt.Sprintf("variable %s of negated atom %s is not bound by the positive body (unsafe negation)", t.Name, c.format(a)),
					})
				}
			}
		}
	}
	return out
}

// runStratify reports negation through recursion (DL0005): every negated
// body atom whose predicate shares a strongly connected component with the
// rule's head closes a cycle with a negative edge, so no stratification
// exists. Each offending atom gets its own diagnostic with the witness
// cycle, related-positioned at the rules realizing the cycle's edges.
func runStratify(c *Context) []Diagnostic {
	if !c.Program.HasNegation() {
		return nil
	}
	g := c.Graph()
	var out []Diagnostic
	for _, r := range c.Program.Rules {
		for _, a := range r.NegBody {
			cycle, ok := g.Cycle(a.Pred, r.Head.Pred)
			if !ok {
				continue
			}
			d := Diagnostic{
				Code: CodeNotStratifiable, Severity: Error, Pos: atomPos(a, r),
				Message: fmt.Sprintf("program is not stratifiable: %s is negated in a rule for %s, but depends on it through the cycle %s",
					a.Pred, r.Head.Pred, strings.Join(cycle, " → ")),
			}
			// cycle[0] → cycle[1] is the negated edge itself; point the
			// remaining edges at rules that realize them.
			for k := 1; k+1 < len(cycle); k++ {
				if pos, ok := c.edgePos(cycle[k], cycle[k+1]); ok {
					d.Related = append(d.Related, RelatedPos{Pos: pos,
						Message: fmt.Sprintf("%s depends on %s here", cycle[k+1], cycle[k])})
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// edgePos locates a body atom realizing the dependence edge from → to.
func (c *Context) edgePos(from, to string) (ast.Pos, bool) {
	for _, r := range c.Program.Rules {
		if r.Head.Pred != to {
			continue
		}
		for _, a := range append(append([]ast.Atom{}, r.Body...), r.NegBody...) {
			if a.Pred == from {
				return atomPos(a, r), true
			}
		}
	}
	return ast.Pos{}, false
}

// runArity checks that every predicate keeps one arity across all its
// occurrences (DL0003 — ast.Program.Validate rejects this; here each
// conflicting site is pinpointed) and that each argument column sticks to
// one constant kind, integer or symbolic (DL0004 — the paper's "constants
// are integers" convention makes a mixed column almost certainly a typo,
// but it is legal, hence a warning).
func runArity(c *Context) []Diagnostic {
	type colState struct {
		intPos, symPos ast.Pos
		intSeen        bool
		symSeen        bool
		reported       bool
	}
	first := make(map[string]Site)
	arityReported := make(map[string]map[int]bool)
	cols := make(map[string][]colState)
	var out []Diagnostic
	for _, s := range c.Sites() {
		pred := s.Atom.Pred
		f, ok := first[pred]
		if !ok {
			first[pred] = s
			cols[pred] = make([]colState, len(s.Atom.Args))
			f = s
		}
		if len(s.Atom.Args) != len(f.Atom.Args) {
			if arityReported[pred] == nil {
				arityReported[pred] = make(map[int]bool)
			}
			if !arityReported[pred][len(s.Atom.Args)] {
				arityReported[pred][len(s.Atom.Args)] = true
				out = append(out, Diagnostic{
					Code: CodeArity, Severity: Error, Pos: s.Pos,
					Message: fmt.Sprintf("%s used with arity %d, but it has arity %d at its first occurrence", pred, len(s.Atom.Args), len(f.Atom.Args)),
					Related: []RelatedPos{{Pos: f.Pos, Message: fmt.Sprintf("%s first used here", pred)}},
				})
			}
			continue
		}
		for i, t := range s.Atom.Args {
			if t.IsVar || ast.IsFrozen(t.Val) || ast.IsNull(t.Val) {
				continue
			}
			cs := &cols[pred][i]
			if ast.IsSym(t.Val) {
				if !cs.symSeen {
					cs.symSeen, cs.symPos = true, s.Pos
				}
			} else {
				if !cs.intSeen {
					cs.intSeen, cs.intPos = true, s.Pos
				}
			}
			if cs.intSeen && cs.symSeen && !cs.reported {
				cs.reported = true
				pos, other, kind := cs.symPos, cs.intPos, "symbolic"
				if cs.symPos.Before(cs.intPos) {
					pos, other, kind = cs.intPos, cs.symPos, "integer"
				}
				out = append(out, Diagnostic{
					Code: CodeConstType, Severity: Warning, Pos: pos,
					Message: fmt.Sprintf("argument %d of %s mixes constant kinds: %s here, the other kind elsewhere", i+1, pred, kind),
					Related: []RelatedPos{{Pos: other, Message: "conflicting constant kind here"}},
				})
			}
		}
	}
	return out
}

// runReachability reports derived predicates no rule chain can populate
// from the source's facts (DL0006: every rule for them transitively
// requires a predicate that is empty unless supplied as extra input) and
// predicates nothing reads (DL0007: a warning for facts no rule or tgd
// ever consults, an info for derived predicates never referenced — those
// are either the program's output or dead code, which the analyzer cannot
// tell apart).
func runReachability(c *Context) []Diagnostic {
	preds := c.Preds()
	seeds := make(map[string]bool)
	for name, u := range preds {
		// Extensional predicates (no rules) may receive facts at evaluation
		// time even when this source gives none; predicates with source
		// facts are populated outright.
		if len(u.HeadRules) == 0 || u.FactCount > 0 {
			seeds[name] = true
		}
	}
	derivable := c.Graph().Derivable(seeds)
	var out []Diagnostic
	for _, name := range c.PredNames() {
		u := preds[name]
		if len(u.HeadRules) > 0 && !derivable[name] {
			out = append(out, Diagnostic{
				Code: CodeUnderivable, Severity: Warning, Pos: c.rulePos(u.HeadRules[0]),
				Message: fmt.Sprintf("%s is underivable: every rule for it depends on a derived predicate with no base case, so it is empty unless %s facts are supplied as input", name, name),
			})
		}
		if u.BodyUses+u.NegUses+u.TGDUses > 0 {
			continue
		}
		switch {
		case u.FactCount > 0 && len(u.HeadRules) == 0:
			out = append(out, Diagnostic{
				Code: CodeUnusedPred, Severity: Warning, Pos: u.FirstFactPos,
				Message: fmt.Sprintf("facts for %s are never used by any rule or tgd", name),
			})
		case len(u.HeadRules) > 0:
			out = append(out, Diagnostic{
				Code: CodeUnusedPred, Severity: Info, Pos: c.rulePos(u.HeadRules[0]),
				Message: fmt.Sprintf("%s is derived but never referenced by another rule or tgd (program output, or dead code)", name),
			})
		}
	}
	return out
}

// runSingleton flags named variables occurring exactly once in a rule
// (DL0008): a one-off variable joins nothing and usually spells a typo or
// an existence check better written with the anonymous '_'. Variables whose
// names start with '_' (the parser's expansion of '_', or deliberately
// underscored names) are exempt, as are head-only variables — those are
// DL0001 errors already.
func runSingleton(c *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range c.Program.Rules {
		count := make(map[string]int)
		where := make(map[string]ast.Atom)
		headOnly := make(map[string]bool)
		for _, t := range r.Head.Args {
			if t.IsVar {
				count[t.Name]++
				headOnly[t.Name] = true
			}
		}
		for _, a := range append(append([]ast.Atom{}, r.Body...), r.NegBody...) {
			for _, t := range a.Args {
				if t.IsVar {
					count[t.Name]++
					headOnly[t.Name] = false
					if _, ok := where[t.Name]; !ok {
						where[t.Name] = a
					}
				}
			}
		}
		// Report in body-occurrence order for determinism.
		seen := make(map[string]bool)
		for _, a := range append(append([]ast.Atom{}, r.Body...), r.NegBody...) {
			for _, t := range a.Args {
				if !t.IsVar || seen[t.Name] {
					continue
				}
				seen[t.Name] = true
				if count[t.Name] != 1 || headOnly[t.Name] || strings.HasPrefix(t.Name, "_") {
					continue
				}
				out = append(out, Diagnostic{
					Code: CodeSingletonVar, Severity: Warning, Pos: atomPos(a, r),
					Message: fmt.Sprintf("variable %s occurs only once in the rule for %s; use _ if the unconstrained match is intentional", t.Name, r.Head.Pred),
				})
			}
		}
	}
	return out
}

// runProduct flags rules whose positive body splits into groups of atoms
// sharing no variables, directly or transitively (DL0009): the join
// between the groups is a cartesian product, which is occasionally meant
// but usually a forgotten join variable. Ground atoms (no variables) are
// membership guards of size ≤ 1 and do not count as a group.
func runProduct(c *Context) []Diagnostic {
	var out []Diagnostic
	for _, r := range c.Program.Rules {
		// Union-find over body atoms, keyed through shared variables.
		parent := make([]int, len(r.Body))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		byVar := make(map[string]int)
		for i, a := range r.Body {
			for _, t := range a.Args {
				if !t.IsVar {
					continue
				}
				if j, ok := byVar[t.Name]; ok {
					parent[find(i)] = find(j)
				} else {
					byVar[t.Name] = i
				}
			}
		}
		groups := make(map[int]int) // root -> first atom index
		var roots []int
		for i, a := range r.Body {
			if a.IsGround() {
				continue
			}
			root := find(i)
			if _, ok := groups[root]; !ok {
				groups[root] = i
				roots = append(roots, root)
			}
		}
		if len(roots) < 2 {
			continue
		}
		a, b := r.Body[groups[roots[0]]], r.Body[groups[roots[1]]]
		out = append(out, Diagnostic{
			Code: CodeCartesianProduct, Severity: Warning, Pos: atomPos(b, r),
			Message: fmt.Sprintf("body of the rule for %s is a cartesian product: %s shares no variables with %s (%d independent groups)",
				r.Head.Pred, c.format(b), c.format(a), len(roots)),
			Related: []RelatedPos{{Pos: atomPos(a, r), Message: "disconnected from the group starting here"}},
		})
	}
	return out
}

// runSubsumption reports duplicate rules (DL0010: canonically equal, i.e.
// identical up to variable renaming) and θ-subsumed rules (DL0011: some
// substitution carries another rule's head onto this one's and its body
// into this one's, so deleting this rule preserves uniform equivalence —
// the same test internal/chase uses to skip containment chases). Each rule
// is flagged at most once.
//
// The pairwise sweep runs per head-predicate bucket, not over all rule
// pairs: a substitution maps a rule's head onto another's only when both
// heads share a predicate and arity, and canonical equality implies the
// same, so cross-bucket pairs can never match. Large programs — the shape
// `datalog vet` meets in generated rule sets — are typically wide in
// predicates and shallow per predicate, which turns the quadratic scan into
// one proportional to the sum of squared bucket sizes.
func runSubsumption(c *Context) []Diagnostic {
	rules := c.Program.Rules
	buckets := subsumptionBuckets(rules)
	canon := make(map[int]string)
	flagged := make(map[int]bool)
	var out []Diagnostic
	flag := (func(victim, by int, dup bool) {
		if flagged[victim] {
			return
		}
		flagged[victim] = true
		if dup {
			out = append(out, Diagnostic{
				Code: CodeDuplicateRule, Severity: Warning, Pos: c.rulePos(victim),
				Message: fmt.Sprintf("rule duplicates rule %d (identical up to variable renaming)", by+1),
				Related: []RelatedPos{{Pos: c.rulePos(by), Message: "first occurrence here"}},
			})
			return
		}
		out = append(out, Diagnostic{
			Code: CodeSubsumedRule, Severity: Warning, Pos: c.rulePos(victim),
			Message: fmt.Sprintf("rule is θ-subsumed by rule %d; deleting it preserves uniform equivalence", by+1),
			Related: []RelatedPos{{Pos: c.rulePos(by), Message: "subsuming rule here"}},
		})
	})
	for _, bucket := range buckets {
		if len(bucket) < 2 {
			continue // nothing can pair with a lone rule; skip canonicalizing it
		}
		for _, i := range bucket {
			canon[i] = rules[i].CanonicalString()
		}
		for bi, i := range bucket {
			for _, j := range bucket[bi+1:] {
				switch {
				case canon[i] == canon[j]:
					flag(j, i, true)
				case ast.SubsumesRule(rules[i], rules[j]):
					flag(j, i, false)
				case ast.SubsumesRule(rules[j], rules[i]):
					flag(i, j, false)
				}
			}
		}
	}
	return out
}

// subsumptionBuckets partitions rule indexes by head predicate and arity, in
// first-occurrence order, each bucket keeping program order. It is the index
// that makes runSubsumption near-linear on predicate-wide programs.
func subsumptionBuckets(rules []ast.Rule) [][]int {
	type headKey struct {
		pred  string
		arity int
	}
	at := make(map[headKey]int)
	var buckets [][]int
	for i, r := range rules {
		k := headKey{r.Head.Pred, len(r.Head.Args)}
		bi, ok := at[k]
		if !ok {
			bi = len(buckets)
			at[k] = bi
			buckets = append(buckets, nil)
		}
		buckets[bi] = append(buckets[bi], i)
	}
	return buckets
}

// runTGDCheck measures each tgd against Section XI's candidate properties
// (DL0012), decided by equivopt.Properties — the test the optimizer's
// candidates pass. The optimizer derives candidate tgds from a rule body: the
// LHS atoms are body atoms of the head's predicate (property 1), and a
// variable appearing only in the RHS must not occur in the head (property
// 3) nor anywhere in the body outside the RHS atoms (property 2). A tgd in
// a source file that anchors into some rule body but violates a property
// warns — the Section X pipeline can never discharge it as a candidate; a
// tgd anchoring into no rule at all gets an info note.
func runTGDCheck(c *Context) []Diagnostic {
	var out []Diagnostic
	for _, t := range c.TGDs {
		pos := ast.Pos{}
		if len(t.Lhs) > 0 {
			pos = t.Lhs[0].Pos
		}
		anchored := false
		var problems []string
		var anchorRule int
		for ri, r := range c.Program.Rules {
			theta := make(ast.Subst)
			lhsIdx, rhsIdx, ok := anchor(t, r, theta)
			if !ok {
				continue
			}
			anchored, anchorRule, problems = true, ri, nil
			equivopt.Properties(r, lhsIdx, rhsIdx, func(property int, culprit string) {
				msg := fmt.Sprintf("existential variable (matching %s) occurs in the head", culprit)
				switch property {
				case 1:
					msg = fmt.Sprintf("LHS atom %s is not a %s atom (the head predicate)", culprit, r.Head.Pred)
				case 2:
					msg = fmt.Sprintf("existential variable (matching %s) occurs in the body outside the RHS atoms", culprit)
				}
				problems = append(problems, fmt.Sprintf("property %d: %s", property, msg))
			})
			if len(problems) == 0 {
				break // a clean anchor wins; no finding for this tgd
			}
		}
		switch {
		case !anchored:
			out = append(out, Diagnostic{
				Code: CodeTGDCandidate, Severity: Info, Pos: pos,
				Message: fmt.Sprintf("tgd %s matches no rule body; it constrains inputs but can never arise as a Section XI candidate", c.formatTGD(t)),
			})
		case len(problems) > 0:
			out = append(out, Diagnostic{
				Code: CodeTGDCandidate, Severity: Warning, Pos: pos,
				Message: fmt.Sprintf("tgd %s anchors into the rule for %s but violates Section XI %s", c.formatTGD(t), c.Program.Rules[anchorRule].Head.Pred, strings.Join(problems, "; ")),
				Related: []RelatedPos{{Pos: c.rulePos(anchorRule), Message: "anchoring rule here"}},
			})
		}
	}
	return out
}

func (c *Context) formatTGD(t ast.TGD) string {
	return ast.FormatAtoms(t.Lhs, c.Symbols) + " -> " + ast.FormatAtoms(t.Rhs, c.Symbols)
}

// anchor matches the tgd's LHS then RHS atoms onto distinct body atoms of
// r under one shared substitution (backtracking, bounded steps). It
// returns the matched body indexes per side.
func anchor(t ast.TGD, r ast.Rule, theta ast.Subst) (lhsIdx, rhsIdx []int, ok bool) {
	pattern := append(append([]ast.Atom{}, t.Lhs...), t.Rhs...)
	choice := make([]int, len(pattern))
	used := make([]bool, len(r.Body))
	steps := 10000
	var try func(k int) bool
	try = func(k int) bool {
		if k == len(pattern) {
			return true
		}
		for j, b := range r.Body {
			if used[j] {
				continue
			}
			if steps <= 0 {
				return false
			}
			steps--
			added, ok := ast.MatchAtomInto(pattern[k], b, theta)
			if !ok {
				continue
			}
			used[j], choice[k] = true, j
			if try(k + 1) {
				return true
			}
			used[j] = false
			for _, v := range added {
				delete(theta, v)
			}
		}
		return false
	}
	if !try(0) {
		return nil, nil, false
	}
	return choice[:len(t.Lhs)], choice[len(t.Lhs):], true
}
