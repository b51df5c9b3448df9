package preserve

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/unfold"
)

// Derive returns a session for the program obtained from s by a single-rule
// delta — deleting rule ruleIdx (newRule nil) or replacing it — without
// rebuilding the session from scratch. The Section XI optimizer accepts a
// chain of one-rule weakenings; each acceptance invalidates only the
// derivation trees passing through the changed rule, so the expensive
// per-depth state transfers:
//
//   - the one-step evaluator is delta-patched via eval.Prepared.Derive and
//     registered in the session's plan cache under the new program's content
//     address (a concurrent session deriving the same program hits it);
//   - combination-option tables are shared for every predicate other than
//     the changed rule's head;
//   - depth-k entries are re-derived by patching their unfolding hypergraphs
//     (unfold.Result.Patch) instead of re-unfolding; entries whose patch is
//     refused are dropped and rebuilt lazily on next use.
//
// Deletions transfer too (unfold.Result.PatchDelete re-layers the retained
// hypergraphs with no unification), except when the deleted rule was the
// last one heading its predicate: that shrinks the intentional-predicate
// set the depth-k machinery keys on, so those deltas — like head changes
// and introduced negation — fall back to a fresh session built in the same
// lineage (same plan cache, same stats). The receiver is not mutated and
// both sessions stay usable.
func (s *Session) Derive(ruleIdx int, newRule *ast.Rule) (*Session, error) {
	if ruleIdx < 0 || ruleIdx >= len(s.p.Rules) {
		return nil, fmt.Errorf("preserve: Derive: rule index %d out of range (%d rules)", ruleIdx, len(s.p.Rules))
	}
	old := s.p.Rules[ruleIdx]
	if newRule == nil {
		return s.deriveDelete(ruleIdx)
	}
	if err := newRule.Validate(); err != nil {
		return nil, err
	}
	if newRule.Head.Pred != old.Head.Pred || newRule.HasNegation() {
		return NewSessionIn(s.p.ReplaceRule(ruleIdx, *newRule), s.Lineage)
	}

	ns, err := s.derived(s.p.ReplaceRule(ruleIdx, *newRule), ruleIdx, newRule)
	if err != nil {
		return nil, err
	}

	// The depth-1 preliminary entry runs the initialization program (rules
	// with extensional bodies only); when neither the old nor the new rule
	// is an initialization rule, that program is untouched by the delta and
	// the entry transfers verbatim.
	if e, ok := s.prelim[1]; ok && s.hasIntentionalBody(old) && s.hasIntentionalBody(*newRule) {
		ns.prelim[1] = e
	}
	for depth, e := range s.prelim {
		if depth <= 1 {
			continue
		}
		if ne, ok := s.patchEntry(e, ruleIdx, *newRule, false); ok {
			ns.prelim[depth] = ne
		}
	}
	for depth, e := range s.partial {
		if ne, ok := s.patchEntry(e, ruleIdx, *newRule, true); ok {
			ns.partial[depth] = ne
		}
	}
	return ns, nil
}

// deriveDelete carries the session across a one-rule deletion: the one-step
// evaluator delta-patches through eval.Prepared.Derive, combination options
// transfer for every predicate but the deleted rule's head, and depth-k
// entries re-layer their unfolding hypergraphs via unfold.Result.PatchDelete
// — the ROADMAP carry-over that previously forced a full session rebuild.
func (s *Session) deriveDelete(ruleIdx int) (*Session, error) {
	old := s.p.Rules[ruleIdx]
	np := s.p.WithoutRule(ruleIdx)
	// Deleting the last rule heading a predicate turns it extensional: the
	// intentional set, and with it the meaning of every depth entry and
	// option table, reshapes. Fall back to a fresh build.
	stillIDB := false
	for i, r := range s.p.Rules {
		if i != ruleIdx && r.Head.Pred == old.Head.Pred {
			stillIDB = true
			break
		}
	}
	if !stillIDB {
		return NewSessionIn(np, s.Lineage)
	}

	ns, err := s.derived(np, ruleIdx, nil)
	if err != nil {
		return nil, err
	}

	// A deleted rule with an intentional body was never part of the
	// initialization program, so the depth-1 preliminary entry transfers.
	if e, ok := s.prelim[1]; ok && s.hasIntentionalBody(old) {
		ns.prelim[1] = e
	}
	for depth, e := range s.prelim {
		if depth <= 1 {
			continue
		}
		if ne, ok := s.patchEntryDelete(e, ruleIdx, false); ok {
			ns.prelim[depth] = ne
		}
	}
	for depth, e := range s.partial {
		if ne, ok := s.patchEntryDelete(e, ruleIdx, true); ok {
			ns.partial[depth] = ne
		}
	}
	return ns, nil
}

// derived starts the session for np — s's program with rule ruleIdx deleted
// (newRule nil) or replaced, its head predicate still intentional — in s's
// lineage: the one-step evaluator comes from the plan cache or, on a miss,
// from delta-patching s's plan, and the combination options transfer for
// every predicate but the changed rule's head. Depth entries are the
// caller's to carry over.
func (s *Session) derived(np *ast.Program, ruleIdx int, newRule *ast.Rule) (*Session, error) {
	prep, err := s.Prepare(np.CanonicalString(), func() (*eval.Prepared, error) {
		return s.prep.Derive(ruleIdx, newRule)
	})
	if err != nil {
		return nil, err
	}
	ns := &Session{
		Lineage: s.Lineage, // shared: the lineage is one session
		p:       prep.Program(),
		prep:    prep,
		idb:     s.idb, // head still intentional: the intentional set is unchanged
		prelim:  make(map[int]*depthEntry),
		partial: make(map[int]*depthEntry),
	}
	if s.opts != nil {
		ns.opts = transferOptions(s.opts, ns.p, ns.idb, s.p.Rules[ruleIdx].Head.Pred)
	}
	return ns, nil
}

// patchEntry carries one depth-k entry across the delta by patching its
// retained unfolding hypergraph. ok=false drops the entry, deferring to a
// lazy from-scratch rebuild on next use — correctness never depends on a
// patch succeeding.
func (s *Session) patchEntry(e *depthEntry, ruleIdx int, newRule ast.Rule, partial bool) (*depthEntry, bool) {
	if !e.res.Patchable() {
		return nil, false
	}
	pres, err := e.res.Patch(ruleIdx, newRule)
	if err != nil {
		return nil, false
	}
	return s.entryFromResult(pres, partial)
}

// patchEntryDelete is patchEntry for a one-rule deletion, carried by
// unfold.Result.PatchDelete.
func (s *Session) patchEntryDelete(e *depthEntry, ruleIdx int, partial bool) (*depthEntry, bool) {
	if !e.res.Patchable() {
		return nil, false
	}
	pres, err := e.res.PatchDelete(ruleIdx)
	if err != nil {
		return nil, false
	}
	return s.entryFromResult(pres, partial)
}

// entryFromResult assembles a depth entry around a patched unfolding.
func (s *Session) entryFromResult(pres unfold.Result, partial bool) (*depthEntry, bool) {
	prep, err := s.prepare(pres.Program)
	if err != nil {
		return nil, false
	}
	ne := &depthEntry{prep: prep, complete: pres.Complete, res: pres}
	if partial {
		ne.idb = pres.Program.IDBPredicates()
		ne.opts = combinationOptions(pres.Program, ne.idb)
	} else {
		ne.idb = s.idb
		ne.opts = prelimOptions(pres.Program)
	}
	return ne, true
}

// transferOptions rebuilds the Fig. 3 combination options after a same-head
// one-rule delta: only the changed head predicate's producing-rule list can
// differ, so every other predicate's option slice is shared with the old
// session (options are immutable once built).
func transferOptions(old map[string][]option, np *ast.Program, idb map[string]bool, head string) map[string][]option {
	opts := make(map[string][]option, len(old))
	for pred, os := range old {
		if pred != head {
			opts[pred] = os
		}
	}
	for _, r := range np.Rules {
		if r.Head.Pred == head {
			opts[head] = append(opts[head], option{rule: r})
		}
	}
	if idb[head] {
		opts[head] = append(opts[head], option{trivial: true})
	}
	return opts
}

// hasIntentionalBody reports whether some positive body atom of r is
// intentional in the session program — i.e. whether r is excluded from the
// initialization program Pⁱ.
func (s *Session) hasIntentionalBody(r ast.Rule) bool {
	for _, a := range r.Body {
		if s.idb[a.Pred] {
			return true
		}
	}
	return false
}
