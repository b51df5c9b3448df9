package eval

import (
	"repro/internal/ast"
	"repro/internal/db"
)

// Proof read-back. The fixpoint stamps every derived fact with a round
// strictly above every fact its firing read (a round's windows admit stamps
// ≤ prev only), so an evaluated database already records a well-founded
// derivation order and nothing has to track provenance while it is computed:
// a proof is read back afterwards, one fact at a time, by running the rules
// deriving that fact backwards from it — each rule's head-led variant, the
// one view maintenance rederives with (maintPlan), with operator 0 on the
// fact's id — with the body confined to the rounds a premise may come from. A
// maintained output keeps that order per unit (maintain.go, "Stamps"): a
// premise from a unit below may be newer than the fact it derives.

// yieldSink adapts a halting callback to the pipeline's sink: the firing is
// read off the state's frame, nothing is added, false halts the run.
type yieldSink func() bool

func (f yieldSink) emit(string, []ast.Const) (bool, bool) { return false, !f() }

// Firings hands yield every firing valid in out that derives fact from body
// facts stamped ≤ maxRound: rule is the index into Program().Rules, vals the
// values of ast.VarsOfAtoms(rule.Body) in that order (the frame's; copy to
// keep). out is a database this plan evaluated — a goal-cut partial one
// included — and fact one of its facts (a fact out lacks gets no firing);
// negated literals are checked against it like everywhere else.
// Rules run in program order and a rule's firings in pipeline order, each
// once; yield returning false ends the enumeration. maxRound = out.Round()
// admits every firing; one below fact's own stamp admits exactly those whose
// premises are strictly older, of which a derived fact has at least one.
func (pr *Prepared) Firings(out *db.Database, fact ast.GroundAtom, maxRound int32, stats *Stats, yield func(rule int, vals []ast.Const) bool) {
	rel := out.Relation(fact.Pred)
	id, ok := rel.LookupID(fact.Args)
	if !ok {
		return
	}
	st := getStreamState()
	defer putStreamState(st)
	for _, u := range pr.units {
		if !u.dynamic[fact.Pred] {
			continue
		}
		for ri, rv := range u.maintPlan().rules {
			sp, rule := rv.rederive, u.idxs[ri]
			sink := yieldSink(func() bool { return yield(rule, st.vals[:rv.nVars]) })
			if !sp.run(out, span{max: maxRound, lead: rel, ids: []int32{id}}, st, stats, sink) {
				return
			}
		}
	}
}

// FiringCount returns how many rule firings are valid in d: the distinct
// instantiations of every rule's variables that ground its body into d with
// no negated literal present — the total join output a naive round over d
// considers, duplicates included.
func (pr *Prepared) FiringCount(d *db.Database) int {
	return pr.onePass(d, yieldSink(func() bool { return true })).Firings
}
