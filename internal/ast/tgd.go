package ast

import (
	"fmt"
	"strings"
)

// TGD is a tuple-generating dependency (Section VIII):
//
//	∀x̄ ∃ȳ [ Lhs(x̄) → Rhs(x̄, ȳ) ]
//
// Universally quantified variables are those appearing in the left-hand
// side; variables appearing only in the right-hand side are existentially
// quantified. A tgd with no existential variables is full; otherwise it is
// embedded. The tgds of the paper are untyped.
type TGD struct {
	Lhs []Atom
	Rhs []Atom
}

// NewTGD builds a tgd from left- and right-hand conjunctions.
func NewTGD(lhs, rhs []Atom) TGD { return TGD{Lhs: lhs, Rhs: rhs} }

// Clone returns a deep copy of the tgd.
func (t TGD) Clone() TGD {
	lhs := make([]Atom, len(t.Lhs))
	for i, a := range t.Lhs {
		lhs[i] = a.Clone()
	}
	rhs := make([]Atom, len(t.Rhs))
	for i, a := range t.Rhs {
		rhs[i] = a.Clone()
	}
	return TGD{Lhs: lhs, Rhs: rhs}
}

// Validate checks that both sides are non-empty conjunctions.
func (t TGD) Validate() error {
	if len(t.Lhs) == 0 {
		return fmt.Errorf("ast: tgd %s has an empty left-hand side", t)
	}
	if len(t.Rhs) == 0 {
		return fmt.Errorf("ast: tgd %s has an empty right-hand side", t)
	}
	return nil
}

// UniversalVars returns the universally quantified variables (those of the
// left-hand side) in order of first occurrence.
func (t TGD) UniversalVars() []string { return VarsOfAtoms(t.Lhs) }

// ExistentialVars returns the existentially quantified variables (those
// appearing only in the right-hand side) in order of first occurrence.
func (t TGD) ExistentialVars() []string {
	univ := make(map[string]bool)
	for _, a := range t.Lhs {
		a.CollectVars(univ)
	}
	var exist []string
	seen := make(map[string]bool)
	for _, a := range t.Rhs {
		for _, tm := range a.Args {
			if tm.IsVar && !univ[tm.Name] && !seen[tm.Name] {
				seen[tm.Name] = true
				exist = append(exist, tm.Name)
			}
		}
	}
	return exist
}

// IsFull reports whether the tgd has no existentially quantified variables.
// Applying a full tgd is the same as applying ordinary rules (Example 10).
func (t TGD) IsFull() bool { return len(t.ExistentialVars()) == 0 }

// AsRules converts a full tgd into the equivalent set of rules, one per
// right-hand-side atom, each with the tgd's left-hand side as its body
// (Example 10). It panics on embedded tgds, which require labeled nulls and
// are handled by the chase.
func (t TGD) AsRules() []Rule {
	if !t.IsFull() {
		panic("ast: AsRules on embedded tgd")
	}
	rules := make([]Rule, len(t.Rhs))
	for i, h := range t.Rhs {
		body := make([]Atom, len(t.Lhs))
		for j, a := range t.Lhs {
			body[j] = a.Clone()
		}
		rules[i] = Rule{Head: h.Clone(), Body: body}
	}
	return rules
}

// Rename rewrites every variable of the tgd through f.
func (t TGD) Rename(f func(string) string) TGD {
	lhs := make([]Atom, len(t.Lhs))
	for i, a := range t.Lhs {
		lhs[i] = a.Rename(f)
	}
	rhs := make([]Atom, len(t.Rhs))
	for i, a := range t.Rhs {
		rhs[i] = a.Rename(f)
	}
	return TGD{Lhs: lhs, Rhs: rhs}
}

// String renders the tgd in the paper's arrow notation.
func (t TGD) String() string { return t.Format(nil) }

// Format renders the tgd, resolving symbolic constants through tab.
func (t TGD) Format(tab *SymbolTable) string {
	var sb strings.Builder
	sb.WriteString(FormatAtoms(t.Lhs, tab))
	sb.WriteString(" -> ")
	sb.WriteString(FormatAtoms(t.Rhs, tab))
	sb.WriteByte('.')
	return sb.String()
}
