// Package ast defines the abstract syntax of Datalog programs as used in
// Sagiv's "Optimizing Datalog Programs" (PODS 1987): terms, atoms, rules,
// programs, and tuple-generating dependencies (tgds), together with the
// substitution, renaming, freezing, and validation machinery every other
// package builds on.
//
// Following Section II of the paper, constants are integers, every rule is
// range-restricted (each head variable occurs in the body), and function
// symbols are not permitted. On top of plain integers the package reserves
// disjoint ranges of the Const space for three kinds of generated values:
//
//   - symbolic constants interned through a SymbolTable (so programs over
//     named individuals such as Person("ann") still satisfy the paper's
//     "constants are integers" convention internally),
//   - frozen constants, used by the chase of Section VI to instantiate the
//     variables of a rule to "distinct constants that are not already in r",
//   - labeled nulls δᵢ, used when applying embedded tgds (Section VIII).
package ast

import (
	"fmt"
	"strconv"
	"sync"
)

// Const is a constant value. Plain integers occupy the low range; interned
// symbols, frozen constants and labeled nulls occupy disjoint high ranges so
// that values of different kinds can never collide. The zero value is the
// integer 0.
type Const int64

// Range boundaries for the four kinds of constants. Plain integers must fall
// strictly within (-intLimit, +intLimit); the three generated ranges are
// positive and pairwise disjoint.
const (
	intLimit   Const = 1 << 40
	symBase    Const = 1 << 40 // symbolic constants: [symBase, symBase+2^40)
	frozenBase Const = 1 << 45 // frozen chase constants: [frozenBase, frozenBase+2^40)
	nullBase   Const = 1 << 50 // labeled nulls: [nullBase, ...)
)

// Int returns the Const representing the plain integer n. It panics if n is
// outside the representable integer range; the paper's programs use small
// integers, so hitting the limit indicates a misuse of the generated ranges.
func Int(n int64) Const {
	if n <= -int64(intLimit) || n >= int64(intLimit) {
		panic(fmt.Sprintf("ast: integer constant %d out of range", n))
	}
	return Const(n)
}

// IsInt reports whether c is a plain integer constant.
func IsInt(c Const) bool { return c > -intLimit && c < intLimit }

// IsSym reports whether c is an interned symbolic constant.
func IsSym(c Const) bool { return c >= symBase && c < frozenBase }

// IsFrozen reports whether c is a frozen constant produced by freezing the
// variables of a rule for a chase (Section VI of the paper).
func IsFrozen(c Const) bool { return c >= frozenBase && c < nullBase }

// IsNull reports whether c is a labeled null δᵢ introduced by the
// application of an embedded tgd (Section VIII of the paper).
func IsNull(c Const) bool { return c >= nullBase }

// FrozenConst returns the i-th frozen constant. Frozen constants stand for
// the "distinct constants not already in r" of Corollary 2.
func FrozenConst(i int) Const { return frozenBase + Const(i) }

// NullConst returns the i-th labeled null δᵢ.
func NullConst(i int) Const { return nullBase + Const(i) }

// FrozenIndex returns i such that c == FrozenConst(i); it panics if c is not
// frozen.
func FrozenIndex(c Const) int {
	if !IsFrozen(c) {
		panic("ast: FrozenIndex of non-frozen constant")
	}
	return int(c - frozenBase)
}

// NullIndex returns i such that c == NullConst(i); it panics if c is not a
// null.
func NullIndex(c Const) int {
	if !IsNull(c) {
		panic("ast: NullIndex of non-null constant")
	}
	return int(c - nullBase)
}

// ConstGen hands out fresh constants from one of the generated ranges. The
// zero value is not useful; use NewFrozenGen or NewNullGen.
type ConstGen struct {
	next Const
}

// NewFrozenGen returns a generator of fresh frozen constants starting at
// index 0.
func NewFrozenGen() *ConstGen {
	return &ConstGen{next: frozenBase}
}

// NewNullGen returns a generator of fresh labeled nulls starting at index
// start.
func NewNullGen(start int) *ConstGen {
	return &ConstGen{next: nullBase + Const(start)}
}

// Fresh returns the next unused constant from the generator's range.
func (g *ConstGen) Fresh() Const {
	c := g.next
	g.next++
	return c
}

// SymbolTable interns symbolic constant names (and remembers them for
// printing). It is safe for concurrent use: a server shares one table between
// every parse and every render under a program name, and the table — not its
// callers — is what knows that interning mutates it. Constants are dense
// (the i-th distinct name interned is symBase+i) and never change or go away.
type SymbolTable struct {
	mu     sync.RWMutex
	byName map[string]Const
	names  []string
}

// NewSymbolTable returns an empty symbol table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{byName: make(map[string]Const)}
}

// Intern returns the Const for name, allocating a new symbolic constant on
// first use.
func (t *SymbolTable) Intern(name string) Const {
	if c, ok := t.Lookup(name); ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.byName[name]; ok {
		return c
	}
	c := symBase + Const(len(t.names))
	t.byName[name] = c
	t.names = append(t.names, name)
	return c
}

// Lookup returns the Const for name if it has been interned.
func (t *SymbolTable) Lookup(name string) (Const, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.byName[name]
	return c, ok
}

// Name returns the original spelling of an interned symbolic constant, or
// false if c was not produced by this table.
func (t *SymbolTable) Name(c Const) (string, bool) {
	if !IsSym(c) {
		return "", false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := int(c - symBase)
	if i >= len(t.names) {
		return "", false
	}
	return t.names[i], true
}

// FormatConst renders c for display. Plain integers print as themselves;
// symbolic constants print their interned name in quotes (so the output
// re-parses as the same constant; tab may be nil, in which case a
// positional placeholder is used); frozen constants print as θ‹i›
// matching the paper's x₀,y₀,… convention; nulls print as δ‹i› as in
// Section VIII.
func FormatConst(c Const, tab *SymbolTable) string {
	switch {
	case IsInt(c):
		return strconv.FormatInt(int64(c), 10)
	case IsSym(c):
		if tab != nil {
			if name, ok := tab.Name(c); ok {
				return `"` + name + `"`
			}
		}
		return `"sym` + strconv.Itoa(int(c-symBase)) + `"`
	case IsFrozen(c):
		return "θ" + strconv.Itoa(FrozenIndex(c))
	default:
		return "δ" + strconv.Itoa(NullIndex(c))
	}
}
