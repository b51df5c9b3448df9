package depgraph

import "slices"

// The kernel every graph question of the package is answered on: a directed
// graph over node ids 0..n-1, each node's out-arcs in insertion order. An arc
// carries a label — the rule (dependence graph) or dependency (position
// graph) that put it there — and a mark: a negative edge of the dependence
// graph, a special edge of the position graph. Nodes and arcs are numbered in
// first-seen order, so every answer below is deterministic in the input
// order.

type arc struct {
	to, label int
	marked    bool
}

type digraph [][]arc

// marked selects the negative (special) arcs.
func marked(a arc) bool { return a.marked }

// components assigns strongly connected component ids by Tarjan's algorithm,
// in the order components complete: every arc u → w has comp[u] ≥ comp[w],
// with equality exactly inside a component. Increasing id is reverse
// topological order and decreasing id topological order. n is the number of
// components.
func (g digraph) components() (comp []int, n int) {
	index := make([]int, len(g))
	lowlink := make([]int, len(g))
	onStack := make([]bool, len(g))
	comp = make([]int, len(g))
	for v := range index {
		index[v] = -1
	}
	var stack []int
	counter := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v], lowlink[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, a := range g[v] {
			switch w := a.to; {
			case index[w] == -1:
				strongconnect(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			case onStack[w]:
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] != index[v] {
			return
		}
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp[w] = n
			if w == v {
				break
			}
		}
		n++
	}
	for v := range g {
		if index[v] == -1 {
			strongconnect(v)
		}
	}
	return comp, n
}

// path returns a shortest path from → … → to through the nodes of from's
// component, as its nodes (both ends included) and the labels of the arcs it
// takes. nodes is nil when to cannot be reached that way, which never happens
// for two nodes of one component.
func (g digraph) path(from, to int, comp []int) (nodes, labels []int) {
	prev := make([]int, len(g))
	via := make([]int, len(g))
	for v := range prev {
		prev[v] = -1
	}
	prev[from] = from
	for queue := []int{from}; len(queue) > 0 && prev[to] == -1; queue = queue[1:] {
		v := queue[0]
		for _, a := range g[v] {
			if prev[a.to] == -1 && comp[a.to] == comp[from] {
				prev[a.to], via[a.to] = v, a.label
				queue = append(queue, a.to)
			}
		}
	}
	if prev[to] == -1 {
		return nil, nil
	}
	for v := to; v != from; v = prev[v] {
		nodes = append(nodes, v)
		labels = append(labels, via[v])
	}
	nodes = append(nodes, from)
	slices.Reverse(nodes)
	slices.Reverse(labels)
	return nodes, labels
}

// cycle returns the first arc u → w, in node then arc order, that keep
// accepts and that stays inside its component, closed by the shortest path
// back into the cycle [u, w, …, u]; labels[i] is the label of the arc
// nodes[i] → nodes[i+1]. ok is false when no arc qualifies.
func (g digraph) cycle(comp []int, keep func(arc) bool) (nodes, labels []int, ok bool) {
	for u, arcs := range g {
		for _, a := range arcs {
			if comp[u] == comp[a.to] && keep(a) {
				back, backLabels := g.path(a.to, u, comp)
				return append([]int{u}, back...), append([]int{a.label}, backLabels...), true
			}
		}
	}
	return nil, nil, false
}

// longest returns, per component, the most marked arcs on any path into it
// over the condensation (arcs inside a component count for nothing): one
// pass in topological order, which visits every arc into a component before
// the arcs leaving it.
func (g digraph) longest(comp []int, n int) []int {
	members := make([][]int, n)
	for v, c := range comp {
		members[c] = append(members[c], v)
	}
	level := make([]int, n)
	for c := n - 1; c >= 0; c-- {
		for _, u := range members[c] {
			for _, a := range g[u] {
				if t := comp[a.to]; t != c {
					w := level[c]
					if a.marked {
						w++
					}
					level[t] = max(level[t], w)
				}
			}
		}
	}
	return level
}

// reverse returns the graph with every arc turned around.
func (g digraph) reverse() digraph {
	r := make(digraph, len(g))
	for u, arcs := range g {
		for _, a := range arcs {
			r[a.to] = append(r[a.to], arc{to: u, label: a.label, marked: a.marked})
		}
	}
	return r
}

// reach marks the nodes reachable from seeds, the seeds included.
func (g digraph) reach(seeds []int) []bool {
	in := make([]bool, len(g))
	work := slices.Clone(seeds)
	for _, v := range seeds {
		in[v] = true
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range g[v] {
			if !in[a.to] {
				in[a.to] = true
				work = append(work, a.to)
			}
		}
	}
	return in
}

// saturate returns the least node set that holds seeds and, for every
// hyperedge e all of whose sources it holds, the nodes targets(e). The
// hyperedges are read off the graph: an unmarked arc labelled e out of v is
// one occurrence of v among e's sources, and need[e] counts e's occurrences
// (need is consumed). A marked arc feeds no hyperedge.
func (g digraph) saturate(seeds, need []int, targets func(e int) []int) []bool {
	in := make([]bool, len(g))
	var work []int
	add := func(vs []int) {
		for _, v := range vs {
			if !in[v] {
				in[v] = true
				work = append(work, v)
			}
		}
	}
	add(seeds)
	for e, n := range need {
		if n == 0 {
			add(targets(e))
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range g[v] {
			if a.marked {
				continue
			}
			if need[a.label]--; need[a.label] == 0 {
				add(targets(a.label))
			}
		}
	}
	return in
}
