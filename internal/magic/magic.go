// Package magic implements the magic-sets rewriting of Bancilhon, Maier,
// Sagiv and Ullman — the query-evaluation method the paper's introduction
// names as the consumer of its optimization ("if the query is going to be
// computed [by] the 'magic set' method …, then removing redundant parts can
// only speed up the computation"). Given a program and a query atom with
// some constant arguments, the rewriter adorns the intentional predicates
// with binding patterns (left-to-right sideways information passing),
// introduces magic predicates recording which bindings are actually asked
// for, and guards each rule with its magic atom, so that bottom-up
// evaluation only derives facts relevant to the query.
//
// Adorned predicates are named P@bf…, magic predicates m@P@bf…; the '@'
// separator cannot appear in parsed predicate names, so the generated
// names never collide with user predicates.
package magic

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
)

// Adornment is a binding pattern: one byte per argument position, 'b' for
// bound, 'f' for free.
type Adornment string

// AdornmentForQuery derives the adornment of a query atom: constant
// positions are bound, variable positions free.
func AdornmentForQuery(q ast.Atom) Adornment {
	pat := make([]byte, len(q.Args))
	for i, t := range q.Args {
		if t.IsVar {
			pat[i] = 'f'
		} else {
			pat[i] = 'b'
		}
	}
	return Adornment(pat)
}

// BoundPositions returns the indexes of the bound positions.
func (a Adornment) BoundPositions() []int {
	var out []int
	for i := 0; i < len(a); i++ {
		if a[i] == 'b' {
			out = append(out, i)
		}
	}
	return out
}

// adornedName returns the name of the adorned version of pred.
func adornedName(pred string, a Adornment) string {
	return pred + "@" + string(a)
}

// magicName returns the name of the magic predicate for pred with
// adornment a.
func magicName(pred string, a Adornment) string {
	return "m@" + pred + "@" + string(a)
}

// Rewritten is the output of the magic-sets transformation.
type Rewritten struct {
	// Program is the rewritten program: guarded adorned rules plus magic
	// rules.
	Program *ast.Program
	// Seed is the magic seed fact encoding the query's constants.
	Seed ast.GroundAtom
	// Query is the adorned query atom to evaluate against the rewritten
	// program.
	Query ast.Atom
}

// Rewrite performs the magic-sets transformation of p for the given query
// atom with the default left-to-right SIPS. The query predicate must be
// intentional in p, and p must be stratifiable.
//
// Under stratified negation only the query's stratum is adorned: the rules
// of the strata below it are copied unchanged, so every negated literal —
// which stays on its guarded rule — reads a relation that is complete before
// the adorned rules run, and the rules of the strata above it cannot
// contribute to the query. The rewritten program is stratified again: its
// adorned and magic predicates read the lower ones only.
func Rewrite(p *ast.Program, query ast.Atom) (*Rewritten, error) {
	return rewrite(p, query, LeftToRight)
}

func rewrite(p *ast.Program, query ast.Atom, strategy SIPS) (*Rewritten, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	idb := p.IDBPredicates()
	if !idb[query.Pred] {
		return nil, fmt.Errorf("magic: query predicate %s is extensional; query the EDB directly", query.Pred)
	}
	for _, r := range p.Rules {
		if r.Head.Pred == query.Pred {
			if r.Head.Arity() != query.Arity() {
				return nil, fmt.Errorf("magic: query %s has arity %d, but the program's %s has arity %d", query, query.Arity(), query.Pred, r.Head.Arity())
			}
			break
		}
	}

	queryAd := AdornmentForQuery(query)
	out := ast.NewProgram()
	rules := p.Rules
	if p.HasNegation() {
		strata, err := depgraph.Strata(p)
		if err != nil {
			return nil, err
		}
		level := map[string]int{}
		for i, s := range strata {
			for _, pred := range s {
				level[pred] = i
			}
		}
		top := level[query.Pred]
		idb, rules = map[string]bool{}, nil
		for _, r := range p.Rules {
			switch l := level[r.Head.Pred]; {
			case l < top:
				out.Rules = append(out.Rules, r.Clone())
			case l == top:
				idb[r.Head.Pred] = true
				rules = append(rules, r)
			}
		}
	}
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

	for len(work) > 0 {
		j := work[0]
		work = work[1:]
		for _, r := range rules {
			if r.Head.Pred != j.pred {
				continue
			}
			guarded, magicRules := adornRule(r, j.ad, idb, strategy, enqueue)
			out.Rules = append(out.Rules, guarded)
			out.Rules = append(out.Rules, magicRules...)
		}
	}

	// Seed: the magic fact carrying the query's constants.
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

// adornRule adorns one rule for a head adornment, producing the guarded
// rule and the magic rules for its intentional body atoms. enqueue is
// called for every (predicate, adornment) pair the body demands. The SIPS
// decides the visiting order, which becomes the rewritten body order. The
// rule's negated literals, all over lower strata, stay on the guarded rule;
// the magic rules are positive.
func adornRule(r ast.Rule, headAd Adornment, idb map[string]bool, strategy SIPS, enqueue func(string, Adornment)) (ast.Rule, []ast.Rule) {
	bound := map[string]bool{}
	for _, i := range headAd.BoundPositions() {
		if t := r.Head.Args[i]; t.IsVar {
			bound[t.Name] = true
		}
	}
	order := bodyOrder(r, bound, idb, strategy)

	guard := ast.Atom{
		Pred: magicName(r.Head.Pred, headAd),
		Args: boundArgs(r.Head, headAd),
	}

	newBody := make([]ast.Atom, 0, len(r.Body)+1)
	newBody = append(newBody, guard)
	var magicRules []ast.Rule

	for _, bi := range order {
		a := r.Body[bi]
		if !idb[a.Pred] {
			newBody = append(newBody, a.Clone())
			markBound(a, bound)
			continue
		}
		// Adorn the intentional atom under the current bound set.
		pat := make([]byte, len(a.Args))
		for i, t := range a.Args {
			if !t.IsVar || bound[t.Name] {
				pat[i] = 'b'
			} else {
				pat[i] = 'f'
			}
		}
		ad := Adornment(pat)
		enqueue(a.Pred, ad)

		// Magic rule: the bindings this atom will be asked with are
		// derivable from the head's magic guard plus the atoms already
		// processed (left-to-right SIPS).
		magicHead := ast.Atom{Pred: magicName(a.Pred, ad), Args: boundArgs(a, ad)}
		magicBody := make([]ast.Atom, len(newBody))
		for i, b := range newBody {
			magicBody[i] = b.Clone()
		}
		magicRules = append(magicRules, ast.Rule{Head: magicHead, Body: magicBody})

		adAtom := ast.Atom{Pred: adornedName(a.Pred, ad), Args: append([]ast.Term(nil), a.Args...)}
		newBody = append(newBody, adAtom)
		markBound(a, bound)
	}

	guarded := ast.Rule{
		Head: ast.Atom{Pred: adornedName(r.Head.Pred, headAd), Args: append([]ast.Term(nil), r.Head.Args...)},
		Body: newBody,
	}
	for _, a := range r.NegBody {
		guarded.NegBody = append(guarded.NegBody, a.Clone())
	}
	return guarded, magicRules
}

func boundArgs(a ast.Atom, ad Adornment) []ast.Term {
	var out []ast.Term
	for _, i := range ad.BoundPositions() {
		out = append(out, a.Args[i])
	}
	return out
}

func markBound(a ast.Atom, bound map[string]bool) {
	for _, t := range a.Args {
		if t.IsVar {
			bound[t.Name] = true
		}
	}
}

// Stats reports the work done answering a query.
type Stats struct {
	// Eval is the underlying evaluation's statistics.
	Eval eval.Stats
	// DerivedFacts is the number of facts the evaluation added beyond the
	// input EDB (for magic evaluation this includes magic facts).
	DerivedFacts int
}

// Answer rewrites p for the query, evaluates the rewritten program over the
// EDB plus the magic seed, and returns the query's answer tuples. It is the
// end-to-end "magic set method" pipeline the paper's introduction refers
// to.
func Answer(p *ast.Program, edb *db.Database, query ast.Atom) ([][]ast.Const, Stats, error) {
	rw, err := Rewrite(p, query)
	if err != nil {
		return nil, Stats{}, err
	}
	return rw.answer(rw.seeded(edb))
}

// DirectAnswer answers the query by full bottom-up evaluation followed by
// filtering — the baseline the magic rewriting is compared against.
func DirectAnswer(p *ast.Program, edb *db.Database, query ast.Atom) ([][]ast.Const, Stats, error) {
	return (&Rewritten{Program: p, Query: query}).answer(edb)
}

// seeded returns the input of the rewritten program: edb plus the magic seed.
func (rw *Rewritten) seeded(edb *db.Database) *db.Database {
	in := edb.Clone()
	in.Add(rw.Seed)
	return in
}

// answer evaluates rw.Program over in and selects the tuples of rw.Query —
// the tail every answering entry point shares.
func (rw *Rewritten) answer(in *db.Database) ([][]ast.Const, Stats, error) {
	out, st, err := eval.Eval(rw.Program, in)
	if err != nil {
		return nil, Stats{}, err
	}
	return db.Select(out, rw.Query), Stats{Eval: st, DerivedFacts: out.Len() - in.Len()}, nil
}

// FormatAdornment is a debugging helper rendering the rewritten program
// with one rule per line.
func FormatAdornment(rw *Rewritten) string {
	var sb strings.Builder
	sb.WriteString("seed: ")
	sb.WriteString(rw.Seed.String())
	sb.WriteString("\nquery: ")
	sb.WriteString(rw.Query.String())
	sb.WriteString("\n")
	sb.WriteString(rw.Program.String())
	return sb.String()
}
