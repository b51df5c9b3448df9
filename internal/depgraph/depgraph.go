// Package depgraph implements the dependence graph of Section III: a node
// per predicate, and an edge from predicate Q to predicate R whenever Q
// appears in the body of a rule whose head is R. On top of the graph it
// provides the paper's notion of a recursive predicate, witness cycles and —
// for the stratified-negation extension announced in Section XII —
// stratification.
// The graph questions the rest of the tree asks about a program are answered
// here too: the producer-first rule groups an evaluation runs, the rules in
// a predicate's goal cone, and the predicates derivable from a seed set.
package depgraph

import (
	"fmt"
	"sort"

	"repro/internal/ast"
)

// Graph is the dependence graph of a program. Edges from negated body atoms
// are negative and only matter for stratification.
type Graph struct {
	preds []string
	index map[string]int
	// adj has an arc body pred → head pred per body atom of every rule,
	// labelled with the rule's index and marked when the atom is negated.
	adj digraph
	// heads[i] is the node of rule i's head predicate.
	heads []int
}

// Build constructs the dependence graph of p.
func Build(p *ast.Program) *Graph {
	g := &Graph{index: make(map[string]int), heads: make([]int, len(p.Rules))}
	node := func(pred string) int {
		if i, ok := g.index[pred]; ok {
			return i
		}
		i := len(g.preds)
		g.index[pred] = i
		g.preds = append(g.preds, pred)
		g.adj = append(g.adj, nil)
		return i
	}
	add := func(body string, h, rule int, negative bool) {
		b := node(body)
		g.adj[b] = append(g.adj[b], arc{to: h, label: rule, marked: negative})
	}
	for i, r := range p.Rules {
		h := node(r.Head.Pred)
		g.heads[i] = h
		for _, a := range r.Body {
			add(a.Pred, h, i, false)
		}
		for _, a := range r.NegBody {
			add(a.Pred, h, i, true)
		}
	}
	return g
}

// Preds returns the predicates of the graph in first-seen order.
func (g *Graph) Preds() []string {
	out := make([]string, len(g.preds))
	copy(out, g.preds)
	return out
}

// names maps node ids to their predicates.
func (g *Graph) names(nodes []int) []string {
	out := make([]string, len(nodes))
	for i, v := range nodes {
		out[i] = g.preds[v]
	}
	return out
}

// RecursivePreds returns the predicates lying on a cycle of the dependence
// graph (Section III: "a predicate Q is recursive if there is a path from Q
// to itself"): those whose component holds an edge.
func (g *Graph) RecursivePreds() map[string]bool {
	comp, n := g.adj.components()
	cyclic := make([]bool, n)
	for u, arcs := range g.adj {
		for _, a := range arcs {
			if comp[u] == comp[a.to] {
				cyclic[comp[u]] = true
			}
		}
	}
	rec := make(map[string]bool)
	for v, c := range comp {
		if cyclic[c] {
			rec[g.preds[v]] = true
		}
	}
	return rec
}

// Cycle returns a shortest cycle closed by the dependence edge from → to:
// [from, to, ..., from]. ok is false when no such cycle exists, i.e. the
// two predicates are unknown or lie in different strongly connected
// components. The static analyzer uses it to attach a witness path to each
// offending negated atom, not just the first.
func (g *Graph) Cycle(from, to string) (path []string, ok bool) {
	i, okF := g.index[from]
	j, okT := g.index[to]
	if !okF || !okT {
		return nil, false
	}
	comp, _ := g.adj.components()
	if comp[i] != comp[j] {
		return nil, false
	}
	back, _ := g.adj.path(j, i, comp)
	return append([]string{from}, g.names(back)...), true
}

// Stratified is the one stratifiability decision: nil when every negative
// edge leaves its strongly connected component, otherwise the error every
// stratified entry point reports, naming the first negative edge, in
// first-seen order, that lies inside a component.
func (g *Graph) Stratified() error {
	comp, _ := g.adj.components()
	return g.stratified(comp)
}

// stratified is Stratified over the components comp.
func (g *Graph) stratified(comp []int) error {
	if cycle, _, ok := g.adj.cycle(comp, marked); ok {
		return fmt.Errorf("depgraph: program is not stratifiable: negation through recursion between %s and %s", g.preds[cycle[0]], g.preds[cycle[1]])
	}
	return nil
}

// Strata partitions the program's predicates into strata for stratified
// negation: predicates in the same SCC share a stratum, negative edges must
// cross strictly upward, and positive edges never go downward. Each
// predicate gets the least stratum those constraints allow. It returns an
// error when the program is not stratifiable (a negative edge inside a
// cycle).
func Strata(p *ast.Program) ([][]string, error) {
	g := Build(p)
	comp, n := g.adj.components()
	if err := g.stratified(comp); err != nil {
		return nil, err
	}
	level := g.adj.longest(comp, n)
	top := 0
	for _, l := range level {
		top = max(top, l)
	}
	strata := make([][]string, top+1)
	for v, c := range comp {
		strata[level[c]] = append(strata[level[c]], g.preds[v])
	}
	for _, s := range strata {
		sort.Strings(s)
	}
	return strata, nil
}

// RuleGroups partitions the rule indexes by the strongly connected component
// of their head predicate, producer-first: every edge stays inside its group
// or leads to a later one, so a group's body predicates — negated ones
// included — are complete once the groups before it have run. Rules keep
// program order within a group, and a component with no rule has no group.
// A program that is not Stratified has no such schedule: RuleGroups returns
// Stratified's error.
func (g *Graph) RuleGroups() ([][]int, error) {
	comp, n := g.adj.components()
	if err := g.stratified(comp); err != nil {
		return nil, err
	}
	groups := make([][]int, n)
	for i, h := range g.heads {
		groups[comp[h]] = append(groups[comp[h]], i)
	}
	var out [][]int
	for c := n - 1; c >= 0; c-- {
		if len(groups[c]) > 0 {
			out = append(out, groups[c])
		}
	}
	return out, nil
}

// Cone reports, per rule, whether the rule lies in the goal cone of pred:
// its head is pred or a predicate pred depends on. A derivation of a pred
// fact uses no rule outside the cone.
func (g *Graph) Cone(pred string) []bool {
	in := make([]bool, len(g.heads))
	v, ok := g.index[pred]
	if !ok {
		return in
	}
	up := g.adj.reverse().reach([]int{v})
	for i, h := range g.heads {
		in[i] = up[h]
	}
	return in
}

// Derivable returns the predicates derivable from seeds: the least set
// holding the seeds that are nodes of the graph and the head of every rule
// all of whose positive body predicates it holds. Negated atoms never block a
// rule — absence is what fires them.
func (g *Graph) Derivable(seeds map[string]bool) map[string]bool {
	need := make([]int, len(g.heads))
	for _, arcs := range g.adj {
		for _, a := range arcs {
			if !a.marked {
				need[a.label]++
			}
		}
	}
	var from []int
	for v, pred := range g.preds {
		if seeds[pred] {
			from = append(from, v)
		}
	}
	in := g.adj.saturate(from, need, func(rule int) []int { return g.heads[rule : rule+1] })
	out := make(map[string]bool)
	for v, ok := range in {
		if ok {
			out[g.preds[v]] = true
		}
	}
	return out
}
