// Package dot renders the dependence graph of a program (Section III) in
// Graphviz DOT format, for inspection of optimized programs.
package dot

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/depgraph"
)

// quote escapes a DOT string literal.
func quote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// DependenceGraph renders the dependence graph of p: a node per predicate
// (extensional predicates boxed), an edge from each body predicate to its
// head predicate, negative edges dashed, and recursive predicates shaded.
func DependenceGraph(p *ast.Program) string {
	g := depgraph.Build(p)
	rec := g.RecursivePreds()
	idb := p.IDBPredicates()

	var sb strings.Builder
	sb.WriteString("digraph dependence {\n")
	sb.WriteString("  rankdir=BT;\n")

	preds := g.Preds()
	sort.Strings(preds)
	for _, pred := range preds {
		attrs := []string{}
		if !idb[pred] {
			attrs = append(attrs, "shape=box")
		}
		if rec[pred] {
			attrs = append(attrs, `style=filled`, `fillcolor=lightgray`)
		}
		if len(attrs) > 0 {
			fmt.Fprintf(&sb, "  %s [%s];\n", quote(pred), strings.Join(attrs, ", "))
		} else {
			fmt.Fprintf(&sb, "  %s;\n", quote(pred))
		}
	}

	// Edges, deduplicated, negative ones dashed.
	type edge struct {
		from, to string
		neg      bool
	}
	seen := map[edge]bool{}
	var edges []edge
	for _, r := range p.Rules {
		for _, a := range r.Body {
			e := edge{from: a.Pred, to: r.Head.Pred}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		for _, a := range r.NegBody {
			e := edge{from: a.Pred, to: r.Head.Pred, neg: true}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].to != edges[j].to {
			return edges[i].to < edges[j].to
		}
		return !edges[i].neg
	})
	for _, e := range edges {
		if e.neg {
			fmt.Fprintf(&sb, "  %s -> %s [style=dashed, label=%s];\n", quote(e.from), quote(e.to), quote("not"))
		} else {
			fmt.Fprintf(&sb, "  %s -> %s;\n", quote(e.from), quote(e.to))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
