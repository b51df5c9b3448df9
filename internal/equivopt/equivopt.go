// Package equivopt implements Sections X and XI of the paper: optimization
// under plain equivalence (not uniform equivalence). The equivalence
// problem is undecidable, so this is a sound-but-incomplete procedure: it
// finds a tuple-generating dependency τ witnessing that deleting certain
// body atoms preserves equivalence, by establishing the Section X
// conditions
//
//	(1)  SAT(T) ∩ M(P₁) ⊆ M(P₂)          (chase, Section VIII)
//	(2)  P₁ preserves T                   (Fig. 3, Section IX)
//	(3′) the preliminary DB of P₁ satisfies T   (Section X)
//
// which together imply P₂ ⊑ P₁; the converse P₁ ⊑ P₂ holds a priori since
// P₂'s rule bodies are subsets of P₁'s. Candidate tgds come from the
// Section XI syntactic heuristic (Candidates), whose properties 1–3 are
// decided by Properties — the one test datalog vet reports too. Every
// sub-procedure may diverge on embedded tgds, so the pipeline takes a budget
// and simply skips candidates that come back Unknown — the paper's "spend a
// predetermined amount of time".
package equivopt

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/preserve"
)

// maxRHS bounds the number of atoms a single candidate tgd may delete
// (Example 19 needs 2).
const maxRHS = 3

// maxSweeps bounds full passes over the program.
const maxSweeps = 4

// Options configures the optimizer.
type Options struct {
	// MaxLHS bounds the number of body atoms forming a candidate tgd's
	// left-hand side. The Section XI heuristic uses 1 (the default); 2
	// admits tgds like Example 15's G(x,y) ∧ G(y,z) → A(y,w), at the cost
	// of more combinations in every downstream check.
	MaxLHS int
	// PrelimDepth is the maximum unfolding depth probed for condition (3′)
	// (Section X's generalized preliminary DB). Depth 1 — the plain
	// initialization rules — is always tried first; deeper preliminary DBs
	// are probed only when shallower ones fail. Default 1.
	PrelimDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxLHS == 0 {
		o.MaxLHS = 1
	}
	if o.PrelimDepth == 0 {
		o.PrelimDepth = 1
	}
	return o
}

// Candidate is a tgd proposed by the Section XI heuristic together with the
// body-atom indexes it would delete.
type Candidate struct {
	TGD ast.TGD
	// AtomIndexes are the positions (in the rule body) of the RHS atoms,
	// ascending.
	AtomIndexes []int
}

// Removal records one successful pipeline application.
type Removal struct {
	// RuleIndex is the rule's position in the program at the time of
	// removal.
	RuleIndex int
	// Atoms are the deleted body atoms.
	Atoms []ast.Atom
	// TGD is the dependency that witnessed the redundancy.
	TGD ast.TGD
}

// Candidates generates the candidate tgds for rule r by the Section XI
// heuristic: the LHS is 1..maxLHS body atoms of the head's predicate (the
// paper's heuristic uses one; maxLHS = 2 also proposes tgds like Example
// 15's G(x,y) ∧ G(y,z) → A(y,w)), the RHS is 1..maxRHS of the other body
// atoms — the candidate set of atoms to delete — and a candidate is kept
// when it fails none of the properties Properties decides and deleting its
// RHS leaves a well-formed rule.
func Candidates(r ast.Rule, maxLHS int) []Candidate {
	var headPredIdx []int
	for i, a := range r.Body {
		if a.Pred == r.Head.Pred {
			headPredIdx = append(headPredIdx, i)
		}
	}

	var out []Candidate
	seen := make(map[string]bool)
	n := len(r.Body)

	// Enumerate LHS subsets of head-predicate atoms, size 1..maxLHS.
	for _, lsub := range enumerateSubsets(len(headPredIdx), maxLHS) {
		lhs := make([]int, len(lsub))
		inLHS := make(map[int]bool, len(lsub))
		for k, j := range lsub {
			lhs[k] = headPredIdx[j]
			inLHS[headPredIdx[j]] = true
		}
		var rest []int
		for i := 0; i < n; i++ {
			if !inLHS[i] {
				rest = append(rest, i)
			}
		}
		for _, sub := range enumerateSubsets(len(rest), maxRHS) {
			rhs := make([]int, len(sub))
			for k, j := range sub {
				rhs[k] = rest[j]
			}
			ok := true
			Properties(r, lhs, rhs, func(int, string) { ok = false })
			if !ok {
				continue
			}
			// Deleting the RHS atoms must leave a well-formed rule.
			cand := r
			del := append([]int(nil), rhs...)
			sort.Sort(sort.Reverse(sort.IntSlice(del)))
			for _, i := range del {
				cand = cand.WithoutBodyAtom(i)
			}
			if cand.Validate() != nil {
				continue
			}
			tgd := ast.TGD{
				Lhs: cloneAtoms(r.Body, lhs),
				Rhs: cloneAtoms(r.Body, rhs),
			}
			key := tgd.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			sorted := append([]int(nil), rhs...)
			sort.Ints(sorted)
			out = append(out, Candidate{TGD: tgd, AtomIndexes: sorted})
		}
	}
	return out
}

// Properties decides Section XI's candidate properties for the tgd whose
// left-hand side is r's body atoms at lhs and whose right-hand side is
// those at rhs:
//
//  1. every LHS atom has the head's predicate;
//  2. a variable appearing only in the RHS (existential in the tgd) has all
//     its body occurrences inside the RHS;
//  3. a variable appearing only in the RHS does not occur in the head.
//
// It calls fail once for each property that does not hold, with the first
// culprit: the LHS atom of another predicate (property 1), the RHS-only
// variable (2 and 3). Property 1 comes first, then 2 and 3 in the order the
// RHS atoms' variables break them. Candidates keeps the tgds with no
// failure; datalog vet reports the failures of a declared tgd (DL0012).
func Properties(r ast.Rule, lhs, rhs []int, fail func(property int, culprit string)) {
	for _, i := range lhs {
		if r.Body[i].Pred != r.Head.Pred {
			fail(1, r.Body[i].String())
			break
		}
	}
	universal := make(map[string]bool)
	for _, i := range lhs {
		r.Body[i].CollectVars(universal)
	}
	var failed [4]bool
	for _, i := range rhs {
		for _, v := range r.Body[i].Vars() {
			if universal[v] {
				continue
			}
			if !failed[3] && r.Head.HasVar(v) {
				failed[3] = true
				fail(3, v)
			}
			if failed[2] {
				continue
			}
			for j, b := range r.Body {
				if !slices.Contains(rhs, j) && b.HasVar(v) {
					failed[2] = true
					fail(2, v)
					break
				}
			}
		}
	}
}

// enumerateSubsets returns all non-empty subsets of {0..n-1} of size ≤ max,
// ordered by size then lexicographically.
func enumerateSubsets(n, max int) [][]int {
	var out [][]int
	var cur []int
	var rec func(start, size int)
	rec = func(start, size int) {
		if size == 0 {
			s := make([]int, len(cur))
			copy(s, cur)
			out = append(out, s)
			return
		}
		for i := start; i <= n-size; i++ {
			cur = append(cur, i)
			rec(i+1, size-1)
			cur = cur[:len(cur)-1]
		}
	}
	for size := 1; size <= max && size <= n; size++ {
		rec(0, size)
	}
	return out
}

func cloneAtoms(body []ast.Atom, idx []int) []ast.Atom {
	sorted := append([]int(nil), idx...)
	sort.Ints(sorted)
	out := make([]ast.Atom, len(sorted))
	for k, i := range sorted {
		out[k] = body[i].Clone()
	}
	return out
}

// sessions opens the containment and preservation sessions the Section X
// pipeline runs over p, side by side in one lineage: they share its stats,
// and the preservation session's Pⁿ is the plan the checker prepared.
func sessions(p *ast.Program) (*chase.Checker, *preserve.Session, error) {
	lin := eval.NewLineage()
	ck, err := chase.NewCheckerIn(p, lin)
	if err != nil {
		return nil, nil, err
	}
	ps, err := preserve.NewSessionIn(p, lin)
	if err != nil {
		return nil, nil, err
	}
	return ck, ps, nil
}

// tryCandidate is the Section X pipeline over pre-built sessions for p: ck
// checks condition (1) through the prepared [P,T] chase, ps checks (2) and
// (3′) through the prepared Pⁿ and its cached unfoldings. opts carries
// its defaults already (Optimize fills them in).
func tryCandidate(ctx context.Context, ck *chase.Checker, ps *preserve.Session, p *ast.Program, ruleIdx int, c Candidate, opts Options) (*ast.Program, error) {
	if err := eval.CtxErr(ctx); err != nil {
		return nil, err
	}
	// Build P2: p with the candidate atoms removed from the rule.
	cand := p.Rules[ruleIdx]
	del := append([]int(nil), c.AtomIndexes...)
	sort.Sort(sort.Reverse(sort.IntSlice(del)))
	for _, i := range del {
		cand = cand.WithoutBodyAtom(i)
	}
	if err := cand.Validate(); err != nil {
		return nil, nil
	}
	p2 := p.ReplaceRule(ruleIdx, cand)
	T := []ast.TGD{c.TGD}

	// (1) SAT(T) ∩ M(P1) ⊆ M(P2).
	v, err := ck.SATModelsContained(ctx, T, p2, chase.Budget{})
	if err != nil || v != chase.Yes {
		return nil, err
	}
	// (2) P1 preserves T (k-round non-recursive preservation suffices);
	// probe increasing depths like condition (3′) below.
	ok2 := false
	for depth := 1; depth <= opts.PrelimDepth && !ok2; depth++ {
		v, _, err = ps.Check(ctx, T, preserve.Options{Depth: depth})
		if err != nil {
			return nil, err
		}
		ok2 = v == chase.Yes
	}
	if !ok2 {
		return nil, nil
	}
	// (3′) the preliminary DB of P1 satisfies T; probe increasing
	// unfolding depths (Section X's closing remark).
	for depth := 1; depth <= opts.PrelimDepth; depth++ {
		v, _, err = ps.CheckPreliminary(ctx, T, preserve.Options{Depth: depth})
		if err != nil {
			return nil, err
		}
		if v == chase.Yes {
			return p2, nil
		}
	}
	return nil, nil
}

// Optimize runs the Section XI optimization over the whole program:
// repeatedly generate candidate tgds for each rule and apply the first
// candidate whose pipeline succeeds, until a sweep makes no progress. The
// result is equivalent (as a query over EDBs) to p, though generally not
// uniformly equivalent. ctx is observed before every candidate pipeline and
// threaded into all three Section X condition checks, so a deadline aborts
// with an error wrapping eval.ErrCanceled; cancellation never yields a
// partially applied program — Optimize returns the removals accepted so far
// with the error.
func Optimize(ctx context.Context, p *ast.Program, opts Options) (*ast.Program, []Removal, error) {
	opts = opts.withDefaults()
	if p.HasNegation() {
		return nil, nil, fmt.Errorf("equivopt: pure Datalog required")
	}
	cur := p.Clone()
	// One containment session and one preservation session serve every
	// candidate probed against the current program. When a candidate is
	// applied both are opened afresh over the weakened program in the same
	// lineage: the preservation session's Pⁿ is the plan the checker just
	// registered in the plan cache, and its per-depth entries are rebuilt
	// when first probed.
	ck, ps, err := sessions(cur)
	if err != nil {
		return nil, nil, err
	}
	var removals []Removal
	for sweep := 0; sweep < maxSweeps; sweep++ {
		progress := false
		for i := 0; i < len(cur.Rules); i++ {
			for {
				applied := false
				for _, c := range Candidates(cur.Rules[i], opts.MaxLHS) {
					p2, err := tryCandidate(ctx, ck, ps, cur, i, c, opts)
					if err != nil {
						return nil, removals, err
					}
					if p2 == nil {
						continue
					}
					removals = append(removals, Removal{
						RuleIndex: i,
						Atoms:     cloneAtoms(cur.Rules[i].Body, c.AtomIndexes),
						TGD:       c.TGD,
					})
					cur = p2
					if ck, err = chase.NewCheckerIn(cur, ck.Lineage); err != nil {
						return nil, removals, err
					}
					if ps, err = preserve.NewSessionIn(cur, ps.Lineage); err != nil {
						return nil, removals, err
					}
					applied = true
					progress = true
					break
				}
				if !applied {
					break
				}
			}
		}
		if !progress {
			break
		}
	}
	return cur, removals, nil
}
