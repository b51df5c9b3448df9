package ast

// θ-subsumption between rules, the syntactic containment test the static
// analyzer and the chase fast path share. Rule s subsumes rule r when some
// substitution θ of s's variables (possibly non-injective, mapping into r's
// terms) makes s.Head·θ equal to r.Head and carries every body atom of s
// onto some body atom of r (set inclusion — s may repeat or exceed r's
// atoms). By Corollary 2 this forces r ⊑ᵘ {s}: the frozen body of r
// contains s.Body·θ frozen, so one application of s derives r's frozen
// head. The converse fails (uniform containment is not syntactic), which is
// exactly why subsumption is only ever a "verdict forced true" fast path.

// subsumeBudget bounds the number of atom-match attempts in one subsumption
// search. Bodies are small in practice, but k repeated predicates in both
// rules admit k^k assignments; on exhaustion the search reports false,
// which every caller treats as "fall back to the chase" or "no finding" —
// both sound.
const subsumeBudget = 10000

// SubsumesRule reports whether rule s θ-subsumes rule r. Negated atoms
// match only negated atoms, so the test remains sound for the
// stratified-negation extension (a model of s still satisfies r).
func SubsumesRule(s, r Rule) bool {
	if s.Head.Pred != r.Head.Pred || len(s.Head.Args) != len(r.Head.Args) ||
		!predsWithin(s.Body, r.Body) || !predsWithin(s.NegBody, r.NegBody) {
		return false
	}
	m := &matcher{theta: make(Subst), steps: subsumeBudget}
	added, ok := m.matchAtom(s.Head, r.Head)
	if !ok {
		return false
	}
	if m.matchInto(s.Body, r.Body, 0) && m.matchInto(s.NegBody, r.NegBody, 0) {
		return true
	}
	m.undo(added)
	return false
}

// predsWithin reports whether every atom of pattern has an atom of target
// with its predicate and arity: without one no θ carries pattern into
// target, so the search need not start.
func predsWithin(pattern, target []Atom) bool {
	for _, a := range pattern {
		found := false
		for _, b := range target {
			if a.Pred == b.Pred && len(a.Args) == len(b.Args) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// MatchAtomInto extends theta — a one-way matching substitution over the
// pattern's variables — so that pattern·theta equals target syntactically.
// Variables of the target are treated as constants (they are never bound).
// It returns the variable names newly bound, for backtracking; on failure
// theta is left unchanged.
func MatchAtomInto(pattern, target Atom, theta Subst) (added []string, ok bool) {
	m := &matcher{theta: theta, steps: 1}
	return m.matchAtom(pattern, target)
}

// matcher carries the matching substitution and the remaining step budget
// of one subsumption search.
type matcher struct {
	theta Subst
	steps int
}

func (m *matcher) undo(added []string) {
	for _, v := range added {
		delete(m.theta, v)
	}
}

// matchAtom extends theta so pattern·theta == target, returning the newly
// bound variable names for backtracking.
func (m *matcher) matchAtom(pattern, target Atom) (added []string, ok bool) {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return nil, false
	}
	for i, t := range pattern.Args {
		want := target.Args[i]
		if !t.IsVar {
			if want.IsVar || want.Val != t.Val {
				m.undo(added)
				return nil, false
			}
			continue
		}
		if bound, has := m.theta[t.Name]; has {
			if !bound.Equal(want) {
				m.undo(added)
				return nil, false
			}
			continue
		}
		m.theta[t.Name] = want
		added = append(added, t.Name)
	}
	return added, true
}

// matchInto finds an extension of theta carrying every pattern atom from
// index i on into some target atom (targets may be reused — set inclusion,
// not a matching). It backtracks over the choice of target per pattern atom
// and gives up when the step budget runs out.
func (m *matcher) matchInto(pattern, target []Atom, i int) bool {
	if i >= len(pattern) {
		return true
	}
	for _, t := range target {
		if m.steps <= 0 {
			return false
		}
		m.steps--
		added, ok := m.matchAtom(pattern[i], t)
		if !ok {
			continue
		}
		if m.matchInto(pattern, target, i+1) {
			return true
		}
		m.undo(added)
	}
	return false
}
