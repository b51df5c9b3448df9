package depgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
)

// randomGraphProgram is a seeded random program over preds R0..Rn-1 (n ≤ 7)
// with up to ten rules, each with up to three positive and, when neg is set,
// up to two negated body atoms. Only the predicates matter to the graph.
func randomGraphProgram(rng *rand.Rand, neg bool) *ast.Program {
	n := 1 + rng.Intn(7)
	pred := func() ast.Atom { return at(fmt.Sprintf("R%d", rng.Intn(n)), "x") }
	p := ast.NewProgram()
	for i := rng.Intn(11); i > 0; i-- {
		r := ast.Rule{Head: pred()}
		for j := rng.Intn(4); j > 0; j-- {
			r.Body = append(r.Body, pred())
		}
		for j := rng.Intn(3); neg && j > 0; j-- {
			r.NegBody = append(r.NegBody, pred())
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

// closure is the brute-force reference: reach[a][b] holds when the
// dependence graph has a non-empty path a → … → b (Warshall), negEdge[a][b]
// when some rule for b negates a.
type closure struct {
	reach, negEdge map[string]map[string]bool
	preds          []string
}

func warshall(p *ast.Program) closure {
	c := closure{reach: map[string]map[string]bool{}, negEdge: map[string]map[string]bool{}}
	seen := map[string]bool{}
	node := func(s string) {
		if !seen[s] {
			seen[s] = true
			c.preds = append(c.preds, s)
			c.reach[s] = map[string]bool{}
			c.negEdge[s] = map[string]bool{}
		}
	}
	for _, r := range p.Rules {
		node(r.Head.Pred)
		for _, a := range r.Body {
			node(a.Pred)
			c.reach[a.Pred][r.Head.Pred] = true
		}
		for _, a := range r.NegBody {
			node(a.Pred)
			c.reach[a.Pred][r.Head.Pred] = true
			c.negEdge[a.Pred][r.Head.Pred] = true
		}
	}
	for _, k := range c.preds {
		for _, i := range c.preds {
			for _, j := range c.preds {
				if c.reach[i][k] && c.reach[k][j] {
					c.reach[i][j] = true
				}
			}
		}
	}
	return c
}

// same reports mutual reachability, the component relation.
func (c closure) same(a, b string) bool { return a == b || c.reach[a][b] && c.reach[b][a] }

// TestGraphKernelMatchesWarshall checks every answer the graph gives against
// the brute-force closure, over 1,200 seeded random programs, two of three
// with negation: components are the mutual-reachability classes; every edge
// stays in its rule group or leads to a later one; Strata gives the least
// levels (or, when a negative edge lies inside a class, an error that every
// entry point agrees on); each cone is backward reachability; and the
// derivable set is the naive fixpoint.
func TestGraphKernelMatchesWarshall(t *testing.T) {
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomGraphProgram(rng, seed%3 != 0)
		g := Build(p)
		c := warshall(p)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\nprogram:\n%s", seed, fmt.Sprintf(format, args...), p)
		}

		// Components: exactly the mutual-reachability classes, each pair of
		// a class closing a cycle.
		for _, a := range c.preds {
			for _, b := range c.preds {
				cycle, ok := g.Cycle(a, b)
				if ok != c.same(a, b) {
					fail("Cycle(%s, %s) ok=%v", a, b, ok)
				}
				if ok && (cycle[0] != a || cycle[1] != b || cycle[len(cycle)-1] != a) {
					fail("Cycle(%s, %s) = %v", a, b, cycle)
				}
			}
			if got := g.RecursivePreds()[a]; got != c.reach[a][a] {
				fail("RecursivePreds()[%s] = %v, want %v", a, got, c.reach[a][a])
			}
		}

		// Stratification: one decision, the least levels.
		stratifiable := true
		for _, a := range c.preds {
			for b := range c.negEdge[a] {
				if c.same(a, b) {
					stratifiable = false
				}
			}
		}
		strata, err := Strata(p)
		if (err == nil) != stratifiable || (g.Stratified() == nil) != stratifiable {
			fail("Strata err=%v, Stratified()=%v, want stratifiable=%v", err, g.Stratified(), stratifiable)
		}
		if !stratifiable {
			if err.Error() != g.Stratified().Error() {
				fail("Strata and Stratified disagree: %v / %v", err, g.Stratified())
			}
			edge := strings.TrimPrefix(err.Error(), "depgraph: program is not stratifiable: negation through recursion between ")
			if a, b, _ := strings.Cut(edge, " and "); !c.negEdge[a][b] || !c.same(a, b) {
				fail("%v names no negative edge inside a component", err)
			}
		} else {
			// Least levels by iteration to stability: level(a) ≤ level(b)
			// along every path a → … → b, strictly across a negative edge.
			want := map[string]int{}
			for _, a := range c.preds {
				want[a] = 0
			}
			for changed := true; changed; {
				changed = false
				for _, a := range c.preds {
					for b := range c.reach[a] {
						min := want[a]
						if c.negEdge[a][b] {
							min++
						}
						if want[b] < min {
							want[b], changed = min, true
						}
					}
				}
			}
			got := map[string]int{}
			for i, s := range strata {
				for _, pred := range s {
					got[pred] = i
				}
			}
			if !reflect.DeepEqual(got, want) {
				fail("strata %v, want levels %v", strata, want)
			}
		}

		// Rule groups, the schedule of a stratifiable program: every rule
		// once, in program order within its group, one component per group,
		// and producers first.
		groups, err := g.RuleGroups()
		if !stratifiable {
			if err == nil || err.Error() != g.Stratified().Error() {
				fail("RuleGroups err=%v, want Stratified's", err)
			}
		} else {
			if err != nil {
				fail("RuleGroups: %v", err)
			}
			groupOf := make([]int, len(p.Rules))
			grouped := make([]int, len(p.Rules))
			for gi, group := range groups {
				if !slices.IsSorted(group) {
					fail("group %v is not in program order", group)
				}
				for _, ri := range group {
					groupOf[ri] = gi
					grouped[ri]++
					if !c.same(p.Rules[ri].Head.Pred, p.Rules[group[0]].Head.Pred) {
						fail("group %v spans two components", group)
					}
				}
			}
			if slices.ContainsFunc(grouped, func(n int) bool { return n != 1 }) {
				fail("rule groups %v do not partition the rules", groups)
			}
			for i, r := range p.Rules {
				for _, j := range slices.Concat(r.Body, r.NegBody) {
					for k, def := range p.Rules {
						if def.Head.Pred == j.Pred && groupOf[k] > groupOf[i] {
							fail("edge %s → %s leads from group %d back to group %d", j.Pred, r.Head.Pred, groupOf[k], groupOf[i])
						}
					}
				}
			}
		}

		// Cones: backward reachability to the goal predicate.
		for _, goal := range slices.Concat(c.preds, []string{"Unknown"}) {
			cone := g.Cone(goal)
			for i, r := range p.Rules {
				if want := r.Head.Pred == goal || c.reach[r.Head.Pred][goal]; cone[i] != want {
					fail("Cone(%s)[%d] = %v, want %v", goal, i, cone[i], want)
				}
			}
		}

		// Derivable: the naive fixpoint from a random seed set.
		seeds := map[string]bool{}
		for _, pred := range c.preds {
			if rng.Intn(2) == 0 {
				seeds[pred] = true
			}
		}
		want := map[string]bool{}
		for pred := range seeds {
			want[pred] = true
		}
		for changed := true; changed; {
			changed = false
			for _, r := range p.Rules {
				if !want[r.Head.Pred] && !slices.ContainsFunc(r.Body, func(a ast.Atom) bool { return !want[a.Pred] }) {
					want[r.Head.Pred], changed = true, true
				}
			}
		}
		if got := g.Derivable(seeds); !reflect.DeepEqual(got, want) {
			fail("Derivable(%v) = %v, want %v", seeds, got, want)
		}
	}
}
