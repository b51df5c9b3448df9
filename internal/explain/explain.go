// Package explain records provenance during bottom-up evaluation and
// reconstructs derivation trees: for any fact of P(d), a proof tree whose
// leaves are input facts and whose internal nodes are rule instantiations
// (the "deductions" of Section III). Besides being a practical debugging
// aid for optimized programs, a derivation tree is a machine-checkable
// certificate that a fact really belongs to the least model.
package explain

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
)

// Derivation is a proof tree: Fact is derived by instantiating rule
// RuleIndex (into the program passed to Explain) with Binding, whose body
// instances are proved by Premises. Input facts have RuleIndex == -1 and
// no premises.
type Derivation struct {
	Fact      ast.GroundAtom
	RuleIndex int
	Binding   ast.Binding
	Premises  []*Derivation
}

// IsInput reports whether the node is an input-fact leaf.
func (d *Derivation) IsInput() bool { return d.RuleIndex < 0 }

// Size returns the number of nodes in the tree.
func (d *Derivation) Size() int {
	n := 1
	for _, p := range d.Premises {
		n += p.Size()
	}
	return n
}

// Depth returns the height of the tree (1 for a leaf).
func (d *Derivation) Depth() int {
	max := 0
	for _, p := range d.Premises {
		if dep := p.Depth(); dep > max {
			max = dep
		}
	}
	return max + 1
}

// Format renders the tree with indentation.
func (d *Derivation) Format(p *ast.Program, tab *ast.SymbolTable) string {
	var sb strings.Builder
	d.format(&sb, p, tab, 0)
	return sb.String()
}

func (d *Derivation) format(sb *strings.Builder, p *ast.Program, tab *ast.SymbolTable, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(d.Fact.Format(tab))
	if d.IsInput() {
		sb.WriteString("   [input]\n")
		return
	}
	fmt.Fprintf(sb, "   [rule %d: %s]\n", d.RuleIndex, p.Rules[d.RuleIndex].Format(tab))
	for _, prem := range d.Premises {
		prem.format(sb, p, tab, depth+1)
	}
}

// String renders the tree without rule texts or symbol table.
func (d *Derivation) String() string {
	var sb strings.Builder
	var rec func(*Derivation, int)
	rec = func(n *Derivation, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Fact.String())
		if n.IsInput() {
			sb.WriteString(" [input]")
		} else {
			fmt.Fprintf(&sb, " [rule %d]", n.RuleIndex)
		}
		sb.WriteString("\n")
		for _, p := range n.Premises {
			rec(p, depth+1)
		}
	}
	rec(d, 0)
	return sb.String()
}

// justification records how a fact was first derived.
type justification struct {
	ruleIndex int
	binding   ast.Binding
	premises  []ast.GroundAtom
}

// Prover evaluates a program once, recording one justification per derived
// fact, and then answers Explain queries without re-evaluation.
type Prover struct {
	program *ast.Program
	output  *db.Database
	just    map[string]justification
	input   map[string]bool
}

// NewProver evaluates p on input (stratified semantics if negation is
// present) while recording provenance.
func NewProver(p *ast.Program, input *db.Database) (*Prover, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := &Prover{
		program: p,
		output:  input.Clone(),
		just:    make(map[string]justification),
		input:   make(map[string]bool),
	}
	for _, f := range input.Facts() {
		pr.input[f.Key()] = true
	}

	// Group rules by stratum so negation reads completed relations only.
	var ruleGroups [][]int
	if p.HasNegation() {
		strata, err := depgraph.Strata(p)
		if err != nil {
			return nil, err
		}
		for _, stratum := range strata {
			in := make(map[string]bool)
			for _, pred := range stratum {
				in[pred] = true
			}
			var idxs []int
			for i, r := range p.Rules {
				if in[r.Head.Pred] {
					idxs = append(idxs, i)
				}
			}
			if len(idxs) > 0 {
				ruleGroups = append(ruleGroups, idxs)
			}
		}
	} else {
		all := make([]int, len(p.Rules))
		for i := range all {
			all[i] = i
		}
		ruleGroups = [][]int{all}
	}

	for _, group := range ruleGroups {
		pr.fixpoint(group)
	}
	return pr, nil
}

// fixpoint saturates one rule group, recording the first justification of
// each new fact. Premises always precede the facts they justify in
// insertion order, so recorded provenance is acyclic by construction.
func (pr *Prover) fixpoint(ruleIdxs []int) {
	for {
		added := false
		for _, ri := range ruleIdxs {
			r := pr.program.Rules[ri]
			cs := make([]db.Constraint, len(r.Body))
			for i, a := range db.OrderForJoin(r.Body, nil) {
				cs[i] = db.Constraint{Atom: a, Window: db.AllRounds}
			}
			b := ast.Binding{}
			db.MatchSeq(pr.output, cs, b, func() bool {
				for _, n := range r.NegBody {
					if pr.output.Has(n.MustGround(b)) {
						return true
					}
				}
				head := r.Head.MustGround(b)
				if pr.output.Has(head) {
					return true
				}
				prems := make([]ast.GroundAtom, len(r.Body))
				for i, a := range r.Body {
					prems[i] = a.MustGround(b)
				}
				pr.output.Add(head)
				pr.just[head.Key()] = justification{
					ruleIndex: ri,
					binding:   b.Clone(),
					premises:  prems,
				}
				added = true
				return true
			})
		}
		if !added {
			return
		}
	}
}

// Output returns the computed database P(input).
func (pr *Prover) Output() *db.Database { return pr.output }

// Explain returns a derivation tree for the goal fact, or false when the
// fact is not in P(input).
func (pr *Prover) Explain(goal ast.GroundAtom) (*Derivation, bool) {
	if !pr.output.Has(goal) {
		return nil, false
	}
	return pr.build(goal), true
}

func (pr *Prover) build(fact ast.GroundAtom) *Derivation {
	if pr.input[fact.Key()] {
		return &Derivation{Fact: fact, RuleIndex: -1}
	}
	j, ok := pr.just[fact.Key()]
	if !ok {
		// Defensive: a fact in the output is either input or justified.
		return &Derivation{Fact: fact, RuleIndex: -1}
	}
	node := &Derivation{Fact: fact, RuleIndex: j.ruleIndex, Binding: j.binding}
	for _, prem := range j.premises {
		node.Premises = append(node.Premises, pr.build(prem))
	}
	return node
}

// Verify checks that the tree is a valid proof with respect to p and the
// input database: leaves are input facts, and every internal node's rule
// instantiation is consistent (binding grounds the rule's head and body to
// the node's fact and premises). It returns the first inconsistency found.
func Verify(p *ast.Program, input *db.Database, d *Derivation) error {
	if d.IsInput() {
		if !input.Has(d.Fact) {
			return fmt.Errorf("explain: leaf %v is not an input fact", d.Fact)
		}
		return nil
	}
	if d.RuleIndex >= len(p.Rules) {
		return fmt.Errorf("explain: rule index %d out of range", d.RuleIndex)
	}
	r := p.Rules[d.RuleIndex]
	head, err := r.Head.Ground(d.Binding)
	if err != nil {
		return err
	}
	if !head.Equal(d.Fact) {
		return fmt.Errorf("explain: rule %d head %v does not ground to %v", d.RuleIndex, head, d.Fact)
	}
	if len(d.Premises) != len(r.Body) {
		return fmt.Errorf("explain: rule %d expects %d premises, tree has %d", d.RuleIndex, len(r.Body), len(d.Premises))
	}
	for i, a := range r.Body {
		g, err := a.Ground(d.Binding)
		if err != nil {
			return err
		}
		if !g.Equal(d.Premises[i].Fact) {
			return fmt.Errorf("explain: rule %d premise %d grounds to %v, tree has %v", d.RuleIndex, i, g, d.Premises[i].Fact)
		}
		if err := Verify(p, input, d.Premises[i]); err != nil {
			return err
		}
	}
	return nil
}

// CountingProver is a Prover variant that records EVERY justification of
// every derived fact (not just the first), enabling derivation counting —
// the "how much duplicate work do redundant atoms cause" measure behind
// the paper's join-reduction claim: a redundant body atom with k matches
// multiplies a rule's derivations of the same fact by k.
type CountingProver struct {
	program *ast.Program
	output  *db.Database
	justs   map[string][]justification
	input   map[string]bool
}

// NewCountingProver evaluates p on input recording all justifications.
// Negation is rejected (counting under stratified semantics would need
// per-stratum bookkeeping this analysis does not require).
func NewCountingProver(p *ast.Program, input *db.Database) (*CountingProver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.HasNegation() {
		return nil, fmt.Errorf("explain: counting requires pure Datalog")
	}
	cp := &CountingProver{
		program: p,
		output:  input.Clone(),
		justs:   make(map[string][]justification),
		input:   make(map[string]bool),
	}
	for _, f := range input.Facts() {
		cp.input[f.Key()] = true
	}
	// Whole-program rounds, recording every distinct (rule, binding) instantiation
	// exactly once: iterate until neither facts nor justifications grow.
	seen := make(map[string]bool) // rule index + premise keys
	for {
		grew := false
		for ri, r := range p.Rules {
			cs := make([]db.Constraint, len(r.Body))
			for i, a := range db.OrderForJoin(r.Body, nil) {
				cs[i] = db.Constraint{Atom: a, Window: db.AllRounds}
			}
			b := ast.Binding{}
			rule := r
			db.MatchSeq(cp.output, cs, b, func() bool {
				head := rule.Head.MustGround(b)
				prems := make([]ast.GroundAtom, len(rule.Body))
				sig := fmt.Sprintf("r%d", ri)
				for i, a := range rule.Body {
					prems[i] = a.MustGround(b)
					sig += "|" + prems[i].Key()
				}
				if seen[sig] {
					return true
				}
				seen[sig] = true
				cp.output.Add(head)
				cp.justs[head.Key()] = append(cp.justs[head.Key()], justification{
					ruleIndex: ri,
					binding:   b.Clone(),
					premises:  prems,
				})
				grew = true
				return true
			})
		}
		if !grew {
			return cp, nil
		}
	}
}

// Output returns the computed database.
func (cp *CountingProver) Output() *db.Database { return cp.output }

// Justifications returns how many distinct rule instantiations derive the
// fact (0 for pure input facts and absent facts).
func (cp *CountingProver) Justifications(fact ast.GroundAtom) int {
	return len(cp.justs[fact.Key()])
}

// TotalJustifications sums distinct rule instantiations over all derived
// facts — the total join output the evaluation must consider, duplicates
// included. Removing a redundant atom shrinks exactly this number.
func (cp *CountingProver) TotalJustifications() int {
	n := 0
	for _, js := range cp.justs {
		n += len(js)
	}
	return n
}

// CountProofs counts the distinct proof trees of a fact, capped at max
// (which guards against the exponential blowup cyclic databases cause; a
// result of max means "at least max, or the search was truncated"). Input
// facts count one proof. The count treats a fact used twice in one tree
// independently, so a fact's proofs multiply through shared premises, and
// cycles are cut by marking the path (a derivation may not use itself as
// a premise). The traversal carries a work budget proportional to max, so
// dense cyclic databases saturate quickly instead of exploring an
// exponential DFS.
func (cp *CountingProver) CountProofs(fact ast.GroundAtom, max int) int {
	if max <= 0 {
		max = 1 << 20
	}
	steps := 0
	budget := 200 * max
	onPath := make(map[string]bool)
	var count func(f ast.GroundAtom) int
	count = func(f ast.GroundAtom) int {
		steps++
		if steps > budget {
			return max // saturate: the caller reports "at least max"
		}
		key := f.Key()
		if onPath[key] {
			return 0 // cyclic support contributes no finite proof
		}
		total := 0
		if cp.input[key] {
			total = 1
		}
		onPath[key] = true
		for _, j := range cp.justs[key] {
			prod := 1
			for _, prem := range j.premises {
				prod *= count(prem)
				if prod == 0 || prod >= max {
					break
				}
			}
			total += prod
			if total >= max {
				total = max
				break
			}
		}
		delete(onPath, key)
		return total
	}
	if !cp.output.Has(fact) {
		return 0
	}
	n := count(fact)
	if n > max {
		return max
	}
	return n
}
