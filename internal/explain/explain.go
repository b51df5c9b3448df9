// Package explain reads derivation trees back out of a bottom-up evaluation:
// for any fact of P(d), a proof tree whose leaves are input facts and whose
// internal nodes are rule instantiations (the "deductions" of Section III).
// Nothing is recorded while the program runs. The evaluator stamps every
// derived fact with a round above every fact its firing read, so a firing
// whose premises are strictly older than its conclusion exists for each
// derived fact and is found by running the rules backwards from the fact
// (eval.Prepared.Firings); following premises is well-founded by the stamps.
// Besides being a practical debugging aid for optimized programs, a
// derivation tree is a machine-checkable certificate that a fact really
// belongs to the least model.
package explain

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
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

// Prover answers provenance questions about one evaluation: derivation trees
// (Explain) and derivation counting (TotalJustifications) — the "how much
// duplicate work do redundant atoms cause" measure behind the paper's
// join-reduction claim: a redundant body atom with k matches multiplies a
// rule's derivations of the same fact by k. A Prover is not safe for
// concurrent use.
type Prover struct {
	prog          *ast.Program
	prep          *eval.Prepared
	input, output *db.Database
	vars          [][]string // per rule, its body's variables in ast.VarsOfAtoms order
	stats         eval.Stats
}

// NewProver evaluates p on input (stratified semantics if negation is
// present) and returns the reader over the result.
func NewProver(p *ast.Program, input *db.Database) (*Prover, error) {
	prep, err := eval.Prepare(p)
	if err != nil {
		return nil, err
	}
	out, st, err := prep.Eval(input)
	if err != nil {
		return nil, err
	}
	pr := Over(p, prep, input, out)
	pr.stats = st
	return pr, nil
}

// Over reads proofs from an evaluation that already happened: output is what
// prep.Run computed from input, fully or cut at a goal (a partial database
// explains every fact it holds; the counts want the full one). p names the
// rules and variables in the trees: the program prep was prepared from or a
// per-rule variable renaming of it, which is what a plan cache may hand out.
func Over(p *ast.Program, prep *eval.Prepared, input, output *db.Database) *Prover {
	pr := &Prover{prog: p, prep: prep, input: input, output: output, vars: make([][]string, len(p.Rules))}
	for i, r := range p.Rules {
		pr.vars[i] = ast.VarsOfAtoms(r.Body)
	}
	return pr
}

// Output returns the evaluated database.
func (pr *Prover) Output() *db.Database { return pr.output }

// Stats returns the work done so far: NewProver's evaluation plus every
// read-back pass since.
func (pr *Prover) Stats() eval.Stats { return pr.stats }

// ground returns the binding of one firing — vals are the values of the
// rule's body variables in ast.VarsOfAtoms order — and its body grounded in
// source order.
func (pr *Prover) ground(rule int, vals []ast.Const) (ast.Binding, []ast.GroundAtom) {
	body := pr.prog.Rules[rule].Body
	b := make(ast.Binding, len(vals))
	for i, v := range pr.vars[rule] {
		b[v] = vals[i]
	}
	prems := make([]ast.GroundAtom, len(body))
	for i, a := range body {
		prems[i] = a.MustGround(b)
	}
	return b, prems
}

// Explain returns a derivation tree for the goal fact, or false when the
// fact is not in the output. Input facts are leaves; a derived fact is
// explained by its first firing — lowest rule index, then pipeline order —
// whose premises are all stamped below it.
func (pr *Prover) Explain(goal ast.GroundAtom) (*Derivation, bool) {
	d := pr.build(goal)
	return d, d != nil
}

// build returns nil when fact is not in the output, or is there with no
// firing below its round — an output this plan did not compute from input.
func (pr *Prover) build(fact ast.GroundAtom) *Derivation {
	if pr.input.Has(fact) {
		return &Derivation{Fact: fact, RuleIndex: -1}
	}
	rel := pr.output.Relation(fact.Pred)
	if rel == nil {
		return nil
	}
	id, ok := rel.LookupID(fact.Args)
	if !ok {
		return nil
	}
	var node *Derivation
	var prems []ast.GroundAtom
	pr.prep.Firings(pr.output, fact, rel.RoundOf(int(id))-1, &pr.stats, func(rule int, vals []ast.Const) bool {
		node = &Derivation{Fact: fact, RuleIndex: rule}
		node.Binding, prems = pr.ground(rule, vals)
		return false
	})
	if node == nil {
		return nil
	}
	node.Premises = make([]*Derivation, len(prems))
	for i, prem := range prems {
		if node.Premises[i] = pr.build(prem); node.Premises[i] == nil {
			return nil
		}
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

// TotalJustifications counts, summed over every fact of the output, the
// distinct rule instantiations that derive it — the total join output the
// evaluation must consider, duplicates included. Removing a redundant atom
// shrinks exactly this number.
func (pr *Prover) TotalJustifications() int {
	return pr.prep.FiringCount(pr.output)
}
