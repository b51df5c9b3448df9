package magic

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
)

// AnswerStratified extends the magic pipeline to stratified negation with
// the same conservative split the top-down engine uses: every stratum
// below the query's is materialized bottom-up (negated predicates must be
// complete before anything reads them), and the top stratum is magic-
// rewritten with its negated literals carried over verbatim — they check
// absence against the materialized, complete relations, so restricting
// the positive derivations to query-relevant bindings cannot change their
// meaning. Pure Datalog inputs take the ordinary magic path.
func AnswerStratified(p *ast.Program, edb *db.Database, query ast.Atom, opts eval.Options) ([][]ast.Const, Stats, error) {
	if !p.HasNegation() {
		return Answer(p, edb, query, opts)
	}
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}
	strata, err := depgraph.Strata(p)
	if err != nil {
		return nil, Stats{}, err
	}
	// Locate the query's stratum; everything strictly below it is
	// materialized, the query's stratum and above are dropped or rewritten.
	level := map[string]int{}
	for i, s := range strata {
		for _, pred := range s {
			level[pred] = i
		}
	}
	qLevel, ok := level[query.Pred]
	if !ok {
		return nil, Stats{}, fmt.Errorf("magic: unknown query predicate %s", query.Pred)
	}

	lower := ast.NewProgram()
	upper := ast.NewProgram()
	for _, r := range p.Rules {
		switch {
		case level[r.Head.Pred] < qLevel:
			lower.Rules = append(lower.Rules, r.Clone())
		case level[r.Head.Pred] == qLevel:
			upper.Rules = append(upper.Rules, r.Clone())
		}
		// Rules of higher strata cannot contribute to the query.
	}
	base, lowerStats, err := eval.Eval(lower, edb, opts)
	if err != nil {
		return nil, Stats{}, err
	}

	// The upper stratum's negated predicates live in `base` and are
	// complete. Rewrite only the positive structure: negated literals are
	// reattached to the guarded rules after adornment.
	positives := ast.NewProgram()
	negOf := make([]([]ast.Atom), len(upper.Rules))
	for i, r := range upper.Rules {
		pr := r.Clone()
		negOf[i] = pr.NegBody
		pr.NegBody = nil
		positives.Rules = append(positives.Rules, pr)
	}
	rw, err := Rewrite(positives, query)
	if err != nil {
		return nil, Stats{}, err
	}
	// Reattach negation: a guarded rule's head predicate is the adorned
	// form of its source rule's head, and guarded rules appear in source
	// order per (head, adornment) job; match them back by comparing the
	// unadorned body (cheap and unambiguous because the adorned body embeds
	// the original atoms in order after the guard).
	reattached := ast.NewProgram()
	for _, r := range rw.Program.Rules {
		rr := r.Clone()
		if src, ok := sourceRuleIndex(upper, rr); ok && len(negOf[src]) > 0 {
			for _, n := range negOf[src] {
				rr.NegBody = append(rr.NegBody, n.Clone())
			}
		}
		reattached.Rules = append(reattached.Rules, rr)
	}

	rw.Program = reattached
	tuples, st, err := rw.answer(rw.seeded(base), opts)
	if err != nil {
		return nil, Stats{}, err
	}
	st.Eval.Firings += lowerStats.Firings
	st.Eval.Added += lowerStats.Added
	st.DerivedFacts += base.Len() - edb.Len()
	return tuples, st, nil
}

// sourceRuleIndex identifies which upper-stratum rule a guarded rewritten
// rule came from: guarded rules (not magic rules) have an adorned head
// "P@…" whose unadorned body atoms appear, in order, after the magic
// guard. Magic rules return false.
func sourceRuleIndex(upper *ast.Program, guarded ast.Rule) (int, bool) {
	headPred, ok := unadorn(guarded.Head.Pred)
	if !ok {
		return 0, false // magic predicate
	}
	for i, r := range upper.Rules {
		if r.Head.Pred != headPred || len(guarded.Body) != len(r.Body)+1 || len(r.Head.Args) != len(guarded.Head.Args) {
			continue
		}
		match := true
		for k := range r.Head.Args {
			if !guarded.Head.Args[k].Equal(r.Head.Args[k]) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		for j, a := range r.Body {
			got := guarded.Body[j+1]
			gotPred, adorned := unadorn(got.Pred)
			if !adorned {
				gotPred = got.Pred
			}
			if gotPred != a.Pred || len(got.Args) != len(a.Args) {
				match = false
				break
			}
			for k := range a.Args {
				if !got.Args[k].Equal(a.Args[k]) {
					match = false
					break
				}
			}
			if !match {
				break
			}
		}
		if match {
			return i, true
		}
	}
	return 0, false
}

// unadorn strips the adornment suffix from P@bf…-style names; it returns
// false for magic (m@…) predicates and for names without an adornment.
func unadorn(pred string) (string, bool) {
	for i := 0; i < len(pred); i++ {
		if pred[i] == '@' {
			if i == 0 || pred[:i] == "m" {
				return "", false
			}
			return pred[:i], true
		}
	}
	return "", false
}
