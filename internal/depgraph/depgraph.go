// Package depgraph implements the dependence graph of Section III: a node
// per predicate, and an edge from predicate Q to predicate R whenever Q
// appears in the body of a rule whose head is R. On top of the graph it
// provides strongly connected components, the paper's notions of recursive
// program / predicate / rule and linear program, and — for the
// stratified-negation extension announced in Section XII — stratification.
package depgraph

import (
	"fmt"
	"sort"

	"repro/internal/ast"
)

// Graph is the dependence graph of a program. Edges with Negative set come
// from negated body atoms and only matter for stratification.
type Graph struct {
	preds []string
	index map[string]int
	// adj[i] lists edges leaving predicate i (body pred -> head pred).
	adj [][]edge
}

type edge struct {
	to       int
	negative bool
}

// Build constructs the dependence graph of p.
func Build(p *ast.Program) *Graph {
	g := &Graph{index: make(map[string]int)}
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
	for _, r := range p.Rules {
		h := node(r.Head.Pred)
		for _, a := range r.Body {
			b := node(a.Pred)
			g.adj[b] = append(g.adj[b], edge{to: h})
		}
		for _, a := range r.NegBody {
			b := node(a.Pred)
			g.adj[b] = append(g.adj[b], edge{to: h, negative: true})
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

// HasEdge reports whether the graph has an edge from body predicate `from`
// to head predicate `to`.
func (g *Graph) HasEdge(from, to string) bool {
	i, ok := g.index[from]
	if !ok {
		return false
	}
	j, ok := g.index[to]
	if !ok {
		return false
	}
	for _, e := range g.adj[i] {
		if e.to == j {
			return true
		}
	}
	return false
}

// SCCs returns the strongly connected components in reverse topological
// order (every edge goes from an earlier or same component to a later or
// same one is NOT guaranteed; Tarjan yields components such that each edge
// leads from a later-emitted component to an earlier-emitted one or stays
// inside). Predicates within a component are sorted for determinism.
func (g *Graph) SCCs() [][]string {
	n := len(g.preds)
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = -1
	}
	var stack []int
	var comps [][]string
	counter := 0

	var strongconnect func(v int)
	strongconnect = func(v int) {
		indexOf[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range g.adj[v] {
			w := e.to
			if indexOf[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && indexOf[w] < low[v] {
				low[v] = indexOf[w]
			}
		}
		if low[v] == indexOf[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, g.preds[w])
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for v := 0; v < n; v++ {
		if indexOf[v] == -1 {
			strongconnect(v)
		}
	}
	return comps
}

// sccOf maps each predicate to the id of its component.
func (g *Graph) sccOf() map[string]int {
	comps := g.SCCs()
	m := make(map[string]int)
	for i, comp := range comps {
		for _, p := range comp {
			m[p] = i
		}
	}
	return m
}

// RecursivePreds returns the predicates lying on a cycle of the dependence
// graph (Section III: "a predicate Q is recursive if there is a path from Q
// to itself").
func (g *Graph) RecursivePreds() map[string]bool {
	scc := g.sccOf()
	sizes := make(map[int]int)
	for _, id := range scc {
		sizes[id]++
	}
	rec := make(map[string]bool)
	for pred, id := range scc {
		if sizes[id] > 1 {
			rec[pred] = true
			continue
		}
		// Singleton component: recursive only with a self-loop.
		i := g.index[pred]
		for _, e := range g.adj[i] {
			if e.to == i {
				rec[pred] = true
				break
			}
		}
	}
	return rec
}

// IsRecursive reports whether the program's dependence graph has a cycle.
func IsRecursive(p *ast.Program) bool {
	return len(Build(p).RecursivePreds()) > 0
}

// RecursiveRuleIndexes returns the indices of the recursive rules of p: a
// rule is recursive if the dependence graph has a cycle that includes the
// head predicate and some body predicate (Section III) — equivalently, if
// some body predicate lies in the same strongly connected component as the
// head and that component is cyclic.
func RecursiveRuleIndexes(p *ast.Program) []int {
	g := Build(p)
	scc := g.sccOf()
	rec := g.RecursivePreds()
	var out []int
	for i, r := range p.Rules {
		if !rec[r.Head.Pred] {
			continue
		}
		for _, a := range append(append([]ast.Atom{}, r.Body...), r.NegBody...) {
			if scc[a.Pred] == scc[r.Head.Pred] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// IsLinear reports whether p is a linear program: the body of each rule has
// at most one recursive predicate (Section V).
func IsLinear(p *ast.Program) bool {
	rec := Build(p).RecursivePreds()
	for _, r := range p.Rules {
		n := 0
		for _, a := range r.Body {
			if rec[a.Pred] {
				n++
			}
		}
		for _, a := range r.NegBody {
			if rec[a.Pred] {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	return true
}

// NegativeCycle returns a cycle of predicates witnessing a stratification
// failure: path[0] == path[len(path)-1], consecutive predicates are joined
// by dependence edges (body → head), and the first edge is negative. It
// returns ok=false when every negative edge leaves its strongly connected
// component, i.e. the program is stratifiable. The witness is deterministic
// (first-seen predicate order, shortest return path), so diagnostics built
// from it are stable.
func (g *Graph) NegativeCycle() (path []string, ok bool) {
	scc := g.sccOf()
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if !e.negative || scc[g.preds[u]] != scc[g.preds[e.to]] {
				continue
			}
			// u -!-> e.to, both in one component: close the cycle with a
			// shortest path e.to →* u inside that component.
			return append([]string{g.preds[u]}, g.pathWithin(e.to, u, scc)...), true
		}
	}
	return nil, false
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
	scc := g.sccOf()
	if scc[from] != scc[to] {
		return nil, false
	}
	return append([]string{from}, g.pathWithin(j, i, scc)...), true
}

// pathWithin returns the predicates of a shortest path from → ... → to using
// only nodes of from's strongly connected component (from and to included).
func (g *Graph) pathWithin(from, to int, scc map[string]int) []string {
	comp := scc[g.preds[from]]
	parent := make([]int, len(g.preds))
	for i := range parent {
		parent[i] = -1
	}
	parent[from] = from
	queue := []int{from}
	for len(queue) > 0 && parent[to] == -1 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[v] {
			if parent[e.to] == -1 && scc[g.preds[e.to]] == comp {
				parent[e.to] = v
				queue = append(queue, e.to)
			}
		}
	}
	if parent[to] == -1 {
		// Unreachable within the component — cannot happen for nodes of one
		// SCC, but degrade to the two endpoints rather than panic.
		return []string{g.preds[from], g.preds[to]}
	}
	var rev []int
	for v := to; ; v = parent[v] {
		rev = append(rev, v)
		if v == from {
			break
		}
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, g.preds[rev[i]])
	}
	return out
}

// Strata partitions the program's predicates into strata for stratified
// negation: predicates in the same SCC share a stratum, negative edges must
// cross strictly upward, and positive edges never go downward. It returns
// an error when the program is not stratifiable (a negative edge inside a
// cycle).
func Strata(p *ast.Program) ([][]string, error) {
	g := Build(p)
	scc := g.sccOf()

	// Detect negative edges within a component.
	for from, i := range g.index {
		for _, e := range g.adj[i] {
			if e.negative && scc[from] == scc[g.preds[e.to]] {
				return nil, fmt.Errorf("depgraph: program is not stratifiable: negation through recursion between %s and %s", from, g.preds[e.to])
			}
		}
	}

	// Longest-path layering over the condensation: stratum(head) ≥
	// stratum(body) for positive edges and > for negative edges.
	nComp := 0
	for _, id := range scc {
		if id+1 > nComp {
			nComp = id + 1
		}
	}
	level := make([]int, nComp)
	changed := true
	for iter := 0; changed; iter++ {
		if iter > nComp+1 {
			return nil, fmt.Errorf("depgraph: stratification did not converge")
		}
		changed = false
		for from, i := range g.index {
			for _, e := range g.adj[i] {
				cf, ct := scc[from], scc[g.preds[e.to]]
				min := level[cf]
				if e.negative {
					min++
				}
				if level[ct] < min {
					level[ct] = min
					changed = true
				}
			}
		}
	}
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	strata := make([][]string, maxLevel+1)
	for pred, id := range scc {
		strata[level[id]] = append(strata[level[id]], pred)
	}
	for _, s := range strata {
		sort.Strings(s)
	}
	return strata, nil
}
