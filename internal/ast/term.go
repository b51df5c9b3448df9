package ast

import "fmt"

// Term is an argument of an atom: either a variable or a constant. Function
// symbols are not permitted in Datalog (Section II of the paper).
type Term struct {
	// IsVar distinguishes the two kinds of term.
	IsVar bool
	// Name is the variable's name when IsVar is true.
	Name string
	// Val is the constant's value when IsVar is false.
	Val Const
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{IsVar: true, Name: name} }

// Con returns a constant term wrapping c.
func Con(c Const) Term { return Term{Val: c} }

// IntTerm returns a constant term holding the plain integer n.
func IntTerm(n int64) Term { return Con(Int(n)) }

// Equal reports whether two terms are identical.
func (t Term) Equal(u Term) bool {
	if t.IsVar != u.IsVar {
		return false
	}
	if t.IsVar {
		return t.Name == u.Name
	}
	return t.Val == u.Val
}

// String renders the term without a symbol table; see Formatter for
// table-aware printing.
func (t Term) String() string {
	if t.IsVar {
		return t.Name
	}
	return FormatConst(t.Val, nil)
}

// Subst maps variable names to replacement terms. Applying a substitution is
// simultaneous: replacements are not themselves rewritten.
type Subst map[string]Term

// Binding maps variable names to constants; it is the ground special case of
// Subst used when instantiating rules (Section III) and freezing rule bodies
// (Section VI).
type Binding map[string]Const

// Subst converts the binding to a general substitution.
func (b Binding) Subst() Subst {
	s := make(Subst, len(b))
	for v, c := range b {
		s[v] = Con(c)
	}
	return s
}

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for v, k := range b {
		c[v] = k
	}
	return c
}

// Apply rewrites the term under the substitution. Variables without an entry
// are left untouched.
func (t Term) Apply(s Subst) Term {
	if !t.IsVar {
		return t
	}
	if u, ok := s[t.Name]; ok {
		return u
	}
	return t
}

// GroundAtom is an atom whose arguments are all constants: a fact of the
// database (Section III calls these the "known facts").
type GroundAtom struct {
	Pred string
	Args []Const
}

// NewGroundAtom builds a ground atom.
func NewGroundAtom(pred string, args ...Const) GroundAtom {
	return GroundAtom{Pred: pred, Args: args}
}

// Equal reports whether two ground atoms are identical.
func (g GroundAtom) Equal(h GroundAtom) bool {
	if g.Pred != h.Pred || len(g.Args) != len(h.Args) {
		return false
	}
	for i := range g.Args {
		if g.Args[i] != h.Args[i] {
			return false
		}
	}
	return true
}

// Atom converts the ground atom back into a (variable-free) Atom.
func (g GroundAtom) Atom() Atom {
	args := make([]Term, len(g.Args))
	for i, c := range g.Args {
		args[i] = Con(c)
	}
	return Atom{Pred: g.Pred, Args: args}
}

// String renders the ground atom without a symbol table.
func (g GroundAtom) String() string {
	return g.Format(nil)
}

// Format renders the ground atom, resolving symbolic constants through tab
// when provided.
func (g GroundAtom) Format(tab *SymbolTable) string {
	s := g.Pred + "("
	for i, c := range g.Args {
		if i > 0 {
			s += ", "
		}
		s += FormatConst(c, tab)
	}
	return s + ")"
}

// Key returns a compact string key identifying the ground atom; two ground
// atoms have the same key iff they are equal. It is suitable for use as a
// map key when deduplicating facts.
func (g GroundAtom) Key() string {
	buf := make([]byte, 0, len(g.Pred)+1+8*len(g.Args))
	buf = append(buf, g.Pred...)
	buf = append(buf, 0)
	for _, c := range g.Args {
		v := uint64(c)
		buf = append(buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(buf)
}

func init() {
	// Guard the representation invariants the Const ranges rely on.
	if !IsSym(symBase) || !IsFrozen(frozenBase) || !IsNull(nullBase) {
		panic(fmt.Sprintf("ast: inconsistent constant ranges"))
	}
}
