package ast

import (
	"fmt"
	"sort"
	"strings"
)

// Program is a set of Datalog rules (Section II). The order of rules is kept
// for deterministic iteration but carries no semantics.
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) *Program {
	return &Program{Rules: rules}
}

// Clone returns a deep copy of the program in four allocations whatever its
// size: the Program, its rules, one block for every body atom and one for
// every term. Each rule's Body and NegBody and each atom's Args is a capped
// slice of its block, so appending to one reallocates it and cannot
// overwrite a neighbouring rule or atom.
func (p *Program) Clone() *Program {
	na, nt := 0, 0
	for _, r := range p.Rules {
		a, t := r.size()
		na, nt = na+a, nt+t
	}
	rules := make([]Rule, len(p.Rules))
	atoms, terms := make([]Atom, na), make([]Term, nt)
	for i, r := range p.Rules {
		rules[i], atoms, terms = r.cloneInto(atoms, terms)
	}
	return &Program{Rules: rules}
}

// Equal reports whether two programs have identical rule lists.
func (p *Program) Equal(q *Program) bool {
	if len(p.Rules) != len(q.Rules) {
		return false
	}
	for i := range p.Rules {
		if !p.Rules[i].Equal(q.Rules[i]) {
			return false
		}
	}
	return true
}

// Validate checks every rule and the consistency of predicate arities across
// the whole program (a predicate is a relation scheme and has one arity). It
// runs on every Prepare, so a valid program costs the arity table and nothing
// per rule: an error is only rendered once there is one to report.
func (p *Program) Validate() error {
	arity := make(map[string]int)
	for i, r := range p.Rules {
		if !r.WellFormed() {
			return fmt.Errorf("rule %d: %w", i, r.Validate())
		}
		for _, atoms := range r.Atoms() {
			for _, a := range atoms {
				if n, ok := arity[a.Pred]; !ok {
					arity[a.Pred] = a.Arity()
				} else if n != a.Arity() {
					return fmt.Errorf("ast: predicate %s used with arities %d and %d (rule %d)", a.Pred, n, a.Arity(), i)
				}
			}
		}
	}
	return nil
}

// HasNegation reports whether any rule uses the stratified-negation
// extension.
func (p *Program) HasNegation() bool {
	for _, r := range p.Rules {
		if r.HasNegation() {
			return true
		}
	}
	return false
}

// IDBPredicates returns the intentional predicates: those appearing as the
// head of some rule (Section III).
func (p *Program) IDBPredicates() map[string]bool {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// EDBPredicates returns the extensional predicates: those appearing only in
// rule bodies (Section III).
func (p *Program) EDBPredicates() map[string]bool {
	idb := p.IDBPredicates()
	edb := make(map[string]bool)
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if !idb[a.Pred] {
				edb[a.Pred] = true
			}
		}
		for _, a := range r.NegBody {
			if !idb[a.Pred] {
				edb[a.Pred] = true
			}
		}
	}
	return edb
}

// Predicates returns every predicate of the program with its arity, in
// sorted order.
func (p *Program) Predicates() []PredicateSig {
	arity := make(map[string]int)
	add := func(a Atom) { arity[a.Pred] = a.Arity() }
	for _, r := range p.Rules {
		add(r.Head)
		for _, a := range r.Body {
			add(a)
		}
		for _, a := range r.NegBody {
			add(a)
		}
	}
	sigs := make([]PredicateSig, 0, len(arity))
	for name, n := range arity {
		sigs = append(sigs, PredicateSig{Name: name, Arity: n})
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Name < sigs[j].Name })
	return sigs
}

// PredicateSig names a predicate together with its arity.
type PredicateSig struct {
	Name  string
	Arity int
}

// WithoutRule returns a copy of the program with rule i removed; it is the
// deletion step of the Fig. 2 minimization algorithm.
func (p *Program) WithoutRule(i int) *Program {
	rules := make([]Rule, 0, len(p.Rules)-1)
	for j, r := range p.Rules {
		if j != i {
			rules = append(rules, r.Clone())
		}
	}
	return &Program{Rules: rules}
}

// ReplaceRule returns a copy of the program with rule i replaced by r.
func (p *Program) ReplaceRule(i int, r Rule) *Program {
	out := p.Clone()
	out.Rules[i] = r.Clone()
	return out
}

// InitRules returns the initialization rules of the program: rules whose
// body mentions only extensional predicates (Section X). The returned
// program Pⁱ is non-recursive by construction.
func (p *Program) InitRules() *Program {
	idb := p.IDBPredicates()
	var rules []Rule
	for _, r := range p.Rules {
		init := true
		for _, a := range r.Body {
			if idb[a.Pred] {
				init = false
				break
			}
		}
		for _, a := range r.NegBody {
			if idb[a.Pred] {
				init = false
				break
			}
		}
		if init {
			rules = append(rules, r.Clone())
		}
	}
	return &Program{Rules: rules}
}

// BodyAtomCount returns the total number of positive body atoms across all
// rules — the join count the paper's optimization reduces.
func (p *Program) BodyAtomCount() int {
	n := 0
	for _, r := range p.Rules {
		n += len(r.Body)
	}
	return n
}

// String renders the program one rule per line.
func (p *Program) String() string { return p.Format(nil) }

// Format renders the program, resolving symbolic constants through tab.
func (p *Program) Format(tab *SymbolTable) string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.Format(tab))
		sb.WriteByte('\n')
	}
	return sb.String()
}
