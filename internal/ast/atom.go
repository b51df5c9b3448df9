package ast

import (
	"fmt"
	"strings"
)

// Atom is an atomic formula: a predicate applied to variables and constants
// (Section II of the paper). In traditional database terminology the
// predicate is a relation scheme. Pos is the source position of the
// predicate name when the atom was parsed from text (zero = unknown); it is
// carried through Clone/Apply/Rename but ignored by Equal and by the
// canonical forms.
type Atom struct {
	Pred string
	Args []Term
	Pos  Pos
}

// NewAtom builds an atom from a predicate name and argument terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of argument positions.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom has no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args, Pos: a.Pos}
}

// cloneInto copies a with its arguments carved, capped, from the front of
// terms, and returns the copy with the rest of terms.
func (a Atom) cloneInto(terms []Term) (Atom, []Term) {
	n := len(a.Args)
	args := terms[:n:n]
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args, Pos: a.Pos}, terms[n:]
}

// Equal reports whether two atoms are syntactically identical.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// CollectVars adds the atom's variable names to set.
func (a Atom) CollectVars(set map[string]bool) {
	for _, t := range a.Args {
		if t.IsVar {
			set[t.Name] = true
		}
	}
}

// Vars returns the atom's variables in order of first occurrence.
func (a Atom) Vars() []string {
	var vars []string
	seen := make(map[string]bool)
	for _, t := range a.Args {
		if t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			vars = append(vars, t.Name)
		}
	}
	return vars
}

// HasVar reports whether the variable name occurs in the atom.
func (a Atom) HasVar(name string) bool {
	for _, t := range a.Args {
		if t.IsVar && t.Name == name {
			return true
		}
	}
	return false
}

// Apply rewrites the atom under a substitution.
func (a Atom) Apply(s Subst) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.Apply(s)
	}
	return Atom{Pred: a.Pred, Args: args, Pos: a.Pos}
}

// Rename rewrites every variable name through f.
func (a Atom) Rename(f func(string) string) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar {
			args[i] = Var(f(t.Name))
		} else {
			args[i] = t
		}
	}
	return Atom{Pred: a.Pred, Args: args, Pos: a.Pos}
}

// Ground instantiates the atom under a binding; every variable of the atom
// must be bound. This is the rule-instantiation step of Section III.
func (a Atom) Ground(b Binding) (GroundAtom, error) {
	args := make([]Const, len(a.Args))
	for i, t := range a.Args {
		if !t.IsVar {
			args[i] = t.Val
			continue
		}
		c, ok := b[t.Name]
		if !ok {
			return GroundAtom{}, fmt.Errorf("ast: variable %s unbound when grounding %s", t.Name, a)
		}
		args[i] = c
	}
	return GroundAtom{Pred: a.Pred, Args: args}, nil
}

// MustGround is Ground but panics on unbound variables; callers use it when
// the binding is known to cover the atom (e.g. after a successful match).
func (a Atom) MustGround(b Binding) GroundAtom {
	g, err := a.Ground(b)
	if err != nil {
		panic(err)
	}
	return g
}

// MatchGround attempts to extend binding b so that the atom, instantiated by
// b, equals the ground atom with the given predicate and arguments. On
// success it reports the variable names newly added to b (so the caller can
// undo the extension when backtracking); on failure b is left unchanged.
func (a Atom) MatchGround(pred string, args []Const, b Binding) (added []string, ok bool) {
	if a.Pred != pred || len(a.Args) != len(args) {
		return nil, false
	}
	for i, t := range a.Args {
		if !t.IsVar {
			if t.Val != args[i] {
				undo(b, added)
				return nil, false
			}
			continue
		}
		if c, bound := b[t.Name]; bound {
			if c != args[i] {
				undo(b, added)
				return nil, false
			}
			continue
		}
		b[t.Name] = args[i]
		added = append(added, t.Name)
	}
	return added, true
}

func undo(b Binding, added []string) {
	for _, v := range added {
		delete(b, v)
	}
}

// String renders the atom without a symbol table.
func (a Atom) String() string { return a.Format(nil) }

// Format renders the atom, resolving symbolic constants through tab when
// provided.
func (a Atom) Format(tab *SymbolTable) string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		if t.IsVar {
			sb.WriteString(t.Name)
		} else {
			sb.WriteString(FormatConst(t.Val, tab))
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// FormatAtoms renders a conjunction of atoms separated by commas, the
// notation the paper uses for rule bodies.
func FormatAtoms(atoms []Atom, tab *SymbolTable) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.Format(tab)
	}
	return strings.Join(parts, ", ")
}

// VarsOfAtoms returns the variables of a conjunction in order of first
// occurrence.
func VarsOfAtoms(atoms []Atom) []string {
	var vars []string
	seen := make(map[string]bool)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsVar && !seen[t.Name] {
				seen[t.Name] = true
				vars = append(vars, t.Name)
			}
		}
	}
	return vars
}

// ApplyAtoms rewrites each atom of a conjunction under the substitution.
func ApplyAtoms(atoms []Atom, s Subst) []Atom {
	out := make([]Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Apply(s)
	}
	return out
}

// GroundAtoms instantiates a conjunction under a binding covering all its
// variables.
func GroundAtoms(atoms []Atom, b Binding) ([]GroundAtom, error) {
	out := make([]GroundAtom, len(atoms))
	for i, a := range atoms {
		g, err := a.Ground(b)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}
