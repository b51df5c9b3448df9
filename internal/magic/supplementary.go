package magic

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
)

// RewriteSupplementary performs the supplementary magic-sets rewriting: in
// addition to magic predicates it introduces supplementary predicates
// sup@r‹i› that carry partial join results through each rule body, so the
// common prefix of a rule's guarded version and its magic rules is computed
// once instead of once per consumer. For rule r (adorned for head pattern
// a) with body B₁ … Bₙ:
//
//	sup@r@0(v̄₀)  :- m@H@a(bound head args).
//	m@Q@bᵢ(…)    :- sup@r@i-1(v̄ᵢ₋₁).          for intentional Bᵢ
//	sup@r@i(v̄ᵢ)  :- sup@r@i-1(v̄ᵢ₋₁), Bᵢ′.     (Bᵢ′ adorned if intentional)
//	H@a(head)    :- sup@r@n(v̄ₙ).
//
// where v̄ᵢ keeps exactly the variables that are bound after Bᵢ and still
// needed by a later atom or the head. Answers coincide with Rewrite's; the
// benefit is fewer repeated joins on long bodies (see
// BenchmarkAblation_SupplementaryMagic).
func RewriteSupplementary(p *ast.Program, query ast.Atom) (*Rewritten, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.HasNegation() {
		return nil, fmt.Errorf("magic: pure Datalog required")
	}
	idb := p.IDBPredicates()
	if !idb[query.Pred] {
		return nil, fmt.Errorf("magic: query predicate %s is extensional; query the EDB directly", query.Pred)
	}

	queryAd := AdornmentForQuery(query)
	out := ast.NewProgram()
	type job struct {
		pred string
		ad   Adornment
	}
	seen := map[job]bool{}
	work := []job{{query.Pred, queryAd}}
	seen[work[0]] = true
	enqueue := func(pred string, ad Adornment) {
		j := job{pred, ad}
		if !seen[j] {
			seen[j] = true
			work = append(work, j)
		}
	}

	ruleSeq := 0
	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		for _, r := range p.Rules {
			if r.Head.Pred != j.pred {
				continue
			}
			out.Rules = append(out.Rules, supplementaryRules(r, j.ad, idb, ruleSeq, enqueue)...)
			ruleSeq++
		}
	}

	var seedArgs []ast.Const
	for _, t := range query.Args {
		if !t.IsVar {
			seedArgs = append(seedArgs, t.Val)
		}
	}
	seed := ast.GroundAtom{Pred: magicName(query.Pred, queryAd), Args: seedArgs}
	adQuery := ast.Atom{Pred: adornedName(query.Pred, queryAd), Args: append([]ast.Term(nil), query.Args...)}
	return &Rewritten{Program: out, Seed: seed, Query: adQuery}, nil
}

// supplementaryRules emits the sup-chain for one rule under one head
// adornment.
func supplementaryRules(r ast.Rule, headAd Adornment, idb map[string]bool, seq int, enqueue func(string, Adornment)) []ast.Rule {
	var rules []ast.Rule
	supName := func(i int) string {
		return fmt.Sprintf("sup@%d@%d", seq, i)
	}

	// Variables needed strictly after body position i (atoms i+1.. plus the
	// head).
	neededAfter := make([]map[string]bool, len(r.Body)+1)
	needed := map[string]bool{}
	r.Head.CollectVars(needed)
	neededAfter[len(r.Body)] = copySet(needed)
	for i := len(r.Body) - 1; i >= 0; i-- {
		r.Body[i].CollectVars(needed)
		neededAfter[i] = copySet(needed)
	}
	// neededAfter[i] now holds the variables of atoms i.. plus head; the
	// sup at position i must carry the bound variables still needed by
	// atoms i+1.. or the head, so shift by one when reading it below.

	bound := map[string]bool{}
	for _, i := range headAd.BoundPositions() {
		if t := r.Head.Args[i]; t.IsVar {
			bound[t.Name] = true
		}
	}

	supVars := func(i int) []ast.Term {
		// Bound vars still needed after position i (atoms i+1.. or head).
		need := neededAfter[i]
		var vars []ast.Term
		for _, v := range orderedVars(r, bound) {
			if need[v] {
				vars = append(vars, ast.Var(v))
			}
		}
		return vars
	}

	// sup@r@0 from the magic guard.
	guard := ast.Atom{Pred: magicName(r.Head.Pred, headAd), Args: boundArgs(r.Head, headAd)}
	rules = append(rules, ast.Rule{
		Head: ast.Atom{Pred: supName(0), Args: supVars(0)},
		Body: []ast.Atom{guard},
	})

	for i, a := range r.Body {
		prev := ast.Atom{Pred: supName(i), Args: supVars(i)}
		var bodyAtom ast.Atom
		if idb[a.Pred] {
			pat := make([]byte, len(a.Args))
			for k, t := range a.Args {
				if !t.IsVar || bound[t.Name] {
					pat[k] = 'b'
				} else {
					pat[k] = 'f'
				}
			}
			ad := Adornment(pat)
			enqueue(a.Pred, ad)
			rules = append(rules, ast.Rule{
				Head: ast.Atom{Pred: magicName(a.Pred, ad), Args: boundArgs(a, ad)},
				Body: []ast.Atom{prev.Clone()},
			})
			bodyAtom = ast.Atom{Pred: adornedName(a.Pred, ad), Args: append([]ast.Term(nil), a.Args...)}
		} else {
			bodyAtom = a.Clone()
		}
		markBound(a, bound)
		rules = append(rules, ast.Rule{
			Head: ast.Atom{Pred: supName(i + 1), Args: supVars(i + 1)},
			Body: []ast.Atom{prev.Clone(), bodyAtom},
		})
	}

	rules = append(rules, ast.Rule{
		Head: ast.Atom{Pred: adornedName(r.Head.Pred, headAd), Args: append([]ast.Term(nil), r.Head.Args...)},
		Body: []ast.Atom{{Pred: supName(len(r.Body)), Args: supVars(len(r.Body))}},
	})
	return rules
}

// orderedVars lists the rule's variables in first-occurrence order,
// filtered by the bound set (which callers mutate as positions advance).
func orderedVars(r ast.Rule, bound map[string]bool) []string {
	var out []string
	for _, v := range r.Vars() {
		if bound[v] {
			out = append(out, v)
		}
	}
	return out
}

func copySet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// AnswerSupplementary answers a query through the supplementary rewriting.
func AnswerSupplementary(p *ast.Program, edb *db.Database, query ast.Atom, opts eval.Options) ([][]ast.Const, Stats, error) {
	rw, err := RewriteSupplementary(p, query)
	if err != nil {
		return nil, Stats{}, err
	}
	return rw.answer(rw.seeded(edb), opts)
}
