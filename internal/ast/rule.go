package ast

import (
	"fmt"
	"strconv"
	"strings"
)

// Rule is a Horn-clause rule "Head :- Body." (Section II). NegBody holds
// negated body literals; it is empty for the pure Datalog of the paper and
// is used only by the stratified-negation extension the paper's conclusion
// announces (Section XII). All optimization procedures reject rules with a
// non-empty NegBody. Pos is the source position of the rule (its head atom)
// when parsed from text; the zero value means unknown, and it is ignored by
// Equal and the canonical forms.
type Rule struct {
	Head    Atom
	Body    []Atom
	NegBody []Atom
	Pos     Pos
}

// NewRule builds a rule from a head and positive body atoms.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{Head: head, Body: body}
}

// Clone returns a deep copy of the rule: its body atoms come from one
// block and its terms from another (see cloneInto).
func (r Rule) Clone() Rule {
	na, nt := r.size()
	out, _, _ := r.cloneInto(make([]Atom, na), make([]Term, nt))
	return out
}

// size counts the rule's body atoms (positive and negated) and its terms.
func (r Rule) size() (atoms, terms int) {
	atoms = len(r.Body) + len(r.NegBody)
	terms = len(r.Head.Args)
	for _, a := range r.Body {
		terms += len(a.Args)
	}
	for _, a := range r.NegBody {
		terms += len(a.Args)
	}
	return atoms, terms
}

// cloneInto deep-copies r into the front of the atoms and terms blocks and
// returns the copy with what is left of each. Every slice it carves is
// capped, so an append to one of the copy's slices reallocates instead of
// overwriting its neighbour in the block.
func (r Rule) cloneInto(atoms []Atom, terms []Term) (Rule, []Atom, []Term) {
	out := Rule{Pos: r.Pos}
	out.Head, terms = r.Head.cloneInto(terms)
	out.Body, atoms, terms = cloneAtomsInto(r.Body, atoms, terms)
	if len(r.NegBody) > 0 {
		out.NegBody, atoms, terms = cloneAtomsInto(r.NegBody, atoms, terms)
	}
	return out, atoms, terms
}

// cloneAtomsInto deep-copies src into the front of the atoms and terms
// blocks (see Rule.cloneInto).
func cloneAtomsInto(src, atoms []Atom, terms []Term) ([]Atom, []Atom, []Term) {
	n := len(src)
	out := atoms[:n:n]
	for i, a := range src {
		out[i], terms = a.cloneInto(terms)
	}
	return out, atoms[n:], terms
}

// Atoms is the rule's head, positive body and negated body, for walks that
// treat every atom alike.
func (r Rule) Atoms() [3][]Atom { return [3][]Atom{{r.Head}, r.Body, r.NegBody} }

// Equal reports whether two rules are syntactically identical (same head,
// same body atoms in the same order).
func (r Rule) Equal(s Rule) bool {
	if !r.Head.Equal(s.Head) || len(r.Body) != len(s.Body) || len(r.NegBody) != len(s.NegBody) {
		return false
	}
	for i := range r.Body {
		if !r.Body[i].Equal(s.Body[i]) {
			return false
		}
	}
	for i := range r.NegBody {
		if !r.NegBody[i].Equal(s.NegBody[i]) {
			return false
		}
	}
	return true
}

// Vars returns the rule's variables in order of first occurrence (head
// first, then body, then negated body).
func (r Rule) Vars() []string {
	atoms := make([]Atom, 0, 1+len(r.Body)+len(r.NegBody))
	atoms = append(atoms, r.Head)
	atoms = append(atoms, r.Body...)
	atoms = append(atoms, r.NegBody...)
	return VarsOfAtoms(atoms)
}

// Validate checks the paper's well-formedness assumptions: a non-empty body
// unless the head is ground (Section II), range restriction (every head
// variable appears in the positive body), and — for the stratified-negation
// extension — safety of negated atoms (every variable of a negated atom
// appears in the positive body).
func (r Rule) Validate() error {
	if r.Head.Pred == "" {
		return fmt.Errorf("ast: rule with empty head predicate")
	}
	if len(r.Body) == 0 && len(r.NegBody) == 0 && !r.Head.IsGround() {
		return fmt.Errorf("ast: rule %s has an empty body but a non-ground head", r)
	}
	if len(r.Body) == 0 && len(r.NegBody) > 0 {
		return fmt.Errorf("ast: rule %s has only negated body atoms", r)
	}
	bodyVars := make(map[string]bool)
	for _, a := range r.Body {
		a.CollectVars(bodyVars)
	}
	for _, t := range r.Head.Args {
		if t.IsVar && !bodyVars[t.Name] {
			return fmt.Errorf("ast: rule %s is not range-restricted: head variable %s does not appear in the body", r, t.Name)
		}
	}
	for _, a := range r.NegBody {
		for _, t := range a.Args {
			if t.IsVar && !bodyVars[t.Name] {
				return fmt.Errorf("ast: rule %s is unsafe: variable %s of negated atom %s does not appear in the positive body", r, t.Name, a)
			}
		}
	}
	return nil
}

// WellFormed reports whether Validate would accept r, without constructing
// an error. The minimization loops probe many candidate deletions that break
// range restriction; building a rendered error for each rejected candidate
// costs more than the containment tests the loop actually runs.
func (r Rule) WellFormed() bool {
	if r.Head.Pred == "" {
		return false
	}
	if len(r.Body) == 0 && (len(r.NegBody) > 0 || !r.Head.IsGround()) {
		return false
	}
	for _, t := range r.Head.Args {
		if t.IsVar && !r.bodyBinds(t.Name) {
			return false
		}
	}
	for _, a := range r.NegBody {
		for _, t := range a.Args {
			if t.IsVar && !r.bodyBinds(t.Name) {
				return false
			}
		}
	}
	return true
}

// bodyBinds reports whether variable v occurs in the positive body.
func (r Rule) bodyBinds(v string) bool {
	for _, a := range r.Body {
		for _, t := range a.Args {
			if t.IsVar && t.Name == v {
				return true
			}
		}
	}
	return false
}

// HasNegation reports whether the rule uses the stratified-negation
// extension.
func (r Rule) HasNegation() bool { return len(r.NegBody) > 0 }

// WithoutBodyAtom returns a copy of the rule with positive body atom i
// removed; it is the deletion step of the Fig. 1 minimization algorithm.
func (r Rule) WithoutBodyAtom(i int) Rule {
	body := make([]Atom, 0, len(r.Body)-1)
	body = append(body, r.Body[:i]...)
	body = append(body, r.Body[i+1:]...)
	out := r.Clone()
	out.Body = body
	return out
}

// Rename rewrites every variable name of the rule through f.
func (r Rule) Rename(f func(string) string) Rule {
	body := make([]Atom, len(r.Body))
	for i, a := range r.Body {
		body[i] = a.Rename(f)
	}
	var neg []Atom
	if len(r.NegBody) > 0 {
		neg = make([]Atom, len(r.NegBody))
		for i, a := range r.NegBody {
			neg[i] = a.Rename(f)
		}
	}
	return Rule{Head: r.Head.Rename(f), Body: body, NegBody: neg, Pos: r.Pos}
}

// RenameApart renames the rule's variables so they are disjoint from any
// rule renamed with a different tag; tags are typically rule indices.
func (r Rule) RenameApart(tag int) Rule {
	suffix := "#" + strconv.Itoa(tag)
	return r.Rename(func(v string) string { return v + suffix })
}

// FreezeVars maps each of the given variables to a distinct fresh frozen
// constant, the substitution θ of Corollary 2.
func FreezeVars(vars []string, gen *ConstGen) Binding {
	b := make(Binding, len(vars))
	for _, v := range vars {
		b[v] = gen.Fresh()
	}
	return b
}

// Freeze instantiates the rule's variables to distinct frozen constants and
// returns the frozen head and body, together with the binding θ used. This
// is the "consider the atoms of b as an input DB" step of Section VI.
func (r Rule) Freeze(gen *ConstGen) (head GroundAtom, body []GroundAtom, theta Binding) {
	theta = FreezeVars(r.Vars(), gen)
	head = r.Head.MustGround(theta)
	body = make([]GroundAtom, len(r.Body))
	for i, a := range r.Body {
		body[i] = a.MustGround(theta)
	}
	return head, body, theta
}

// String renders the rule in the paper's notation "H(...) :- B1(...), ...".
func (r Rule) String() string { return r.Format(nil) }

// Format renders the rule, resolving symbolic constants through tab.
func (r Rule) Format(tab *SymbolTable) string {
	var sb strings.Builder
	sb.WriteString(r.Head.Format(tab))
	if len(r.Body) == 0 && len(r.NegBody) == 0 {
		sb.WriteByte('.')
		return sb.String()
	}
	sb.WriteString(" :- ")
	sb.WriteString(FormatAtoms(r.Body, tab))
	for _, a := range r.NegBody {
		sb.WriteString(", !")
		sb.WriteString(a.Format(tab))
	}
	sb.WriteByte('.')
	return sb.String()
}
