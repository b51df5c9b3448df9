// Position dependency graph and chase-termination classification.
//
// The chase of Section VIII (internal/chase) may diverge on embedded tgds,
// and the paper's answer is a raw resource budget. The Datalog± literature
// (PAPERS.md: Weakly-Sticky Datalog±, Finite-Position Selection Functions)
// decides termination syntactically for a ladder of classes, all computable
// from one structure — the position dependency graph:
//
//   - nodes are predicate positions (predicate, column);
//   - for each dependency σ (a tgd, or a rule read as a full tgd) and each
//     frontier variable x (occurring on both sides), a normal edge runs
//     from every position of x in the left-hand side to every position of
//     x in the right-hand side (a value copied across an application);
//   - additionally, a special edge runs from every left-hand position of a
//     frontier variable to every position of an existential variable of σ
//     (a fresh labeled null created from that value).
//
// The classes, from strongest to weakest:
//
//   - weakly acyclic (Fagin et al.): no cycle passes through a special
//     edge. Every chase terminates; positions have finite rank (the
//     maximum number of special edges on a path into them), bounding null
//     generation level by level.
//   - jointly acyclic (Krötzsch & Rudolph): the existential-dependency
//     graph over the existential variables is acyclic — y → y' when the
//     rule of y' has a frontier variable all of whose body positions can
//     hold y's nulls (the Ω-set closure below). Strictly contains weak
//     acyclicity; the chase still always terminates.
//   - sticky (Calì, Gottlob & Pieris): the variable-marking fixpoint marks
//     no variable occurring twice in a body. The chase may diverge but
//     query answering is decidable.
//   - weakly sticky: every marked variable occurring twice in a body has
//     at least one occurrence at a finite-rank position.
//
// Anything outside the ladder is divergence-capable: a budget cutoff is
// load-bearing, not just a safety net.
package depgraph

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ast"
)

// Position identifies one argument position of a predicate. Col is 0-based;
// String renders it 1-based in the conventional pred[i] notation.
type Position struct {
	Pred string
	Col  int
}

// String renders the position as "Pred[i]" with a 1-based column.
func (p Position) String() string { return fmt.Sprintf("%s[%d]", p.Pred, p.Col+1) }

// DepRef names the dependency an edge or witness came from: an index into
// the classified program's rules or into the tgd set (the other is -1).
type DepRef struct {
	Rule int
	TGD  int
}

// TerminationClass is the machine-readable verdict of ClassifyTGDs. The
// ladder orders the classes: weak acyclicity implies joint acyclicity
// (chase-terminating), stickiness implies weak stickiness (decidable query
// answering over a possibly infinite chase).
type TerminationClass int

const (
	// TermUnclassified means no classification ran (analysis disabled).
	TermUnclassified TerminationClass = iota
	// TermWeaklyAcyclic: no position-graph cycle through a special edge.
	TermWeaklyAcyclic
	// TermJointlyAcyclic: not weakly acyclic, but the existential-dependency
	// graph is acyclic; the chase still always terminates.
	TermJointlyAcyclic
	// TermSticky: the chase may diverge, but the sticky marking has no join
	// violation, so query answering stays decidable.
	TermSticky
	// TermWeaklySticky: every marked join variable keeps an occurrence at a
	// finite-rank position.
	TermWeaklySticky
	// TermDivergent: outside every class above — the chase is
	// divergence-capable and budgets are load-bearing.
	TermDivergent
)

// String renders the class in the hyphenated form diagnostics use.
func (c TerminationClass) String() string {
	switch c {
	case TermWeaklyAcyclic:
		return "weakly-acyclic"
	case TermJointlyAcyclic:
		return "jointly-acyclic"
	case TermSticky:
		return "sticky"
	case TermWeaklySticky:
		return "weakly-sticky"
	case TermDivergent:
		return "divergence-capable"
	default:
		return "unclassified"
	}
}

// ChaseTerminates reports whether every chase of a set in this class
// reaches a finite fixpoint — the classes for which a derived budget can
// replace the raw default (see Classification.DerivedBudget).
func (c TerminationClass) ChaseTerminates() bool {
	return c == TermWeaklyAcyclic || c == TermJointlyAcyclic
}

// WACycle witnesses a weak-acyclicity failure: a position cycle whose first
// edge is special. Cycle[0] == Cycle[len-1]; Origins[i] names the
// dependency contributing the edge Cycle[i] → Cycle[i+1].
type WACycle struct {
	Cycle   []Position
	Origins []DepRef
}

// String renders the cycle with "=>" for the special first edge and "->"
// for the normal edges closing it.
func (w *WACycle) String() string {
	var sb strings.Builder
	for i, p := range w.Cycle {
		if i == 1 {
			sb.WriteString(" => ")
		} else if i > 1 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(p.String())
	}
	return sb.String()
}

// ExistVar names one existential variable: the dependency introducing it
// and its name there.
type ExistVar struct {
	Dep DepRef
	Var string
}

// MarkedJoin witnesses a sticky-marking violation: a marked variable
// occurring more than once in one dependency's left-hand side.
type MarkedJoin struct {
	Dep DepRef
	Var string
	// Positions are the variable's distinct left-hand-side positions in
	// occurrence order; Occurrences counts every occurrence.
	Positions   []Position
	Occurrences int
	// FiniteRank reports whether at least one occurrence sits at a
	// finite-rank position — the weak-stickiness rescue.
	FiniteRank bool
}

// Classification is the result of ClassifyTGDs: the class, witnesses for
// each failed classifier (nil when that classifier passed), and the finite
// position ranks the weak-stickiness check and budget derivation use.
type Classification struct {
	Class TerminationClass
	// Full reports that every tgd is full (no existential variables), so
	// the whole set is expressible as plain rules (ast.TGD.AsRules) and the
	// chase collapses to a single Datalog fixpoint.
	Full bool
	// WAViolation is the special-edge cycle when the set is not weakly
	// acyclic; JAViolation the existential-dependency cycle when not
	// jointly acyclic; StickyViolation the marked join variable when not
	// sticky (for weakly-sticky sets it is the rescued join).
	WAViolation     *WACycle
	JAViolation     []ExistVar
	StickyViolation *MarkedJoin
	// Ranks maps each finite-rank position to its rank (positions reachable
	// from a special cycle are omitted — their rank is infinite); MaxRank is
	// the largest finite rank.
	Ranks   map[Position]int
	MaxRank int

	// Schema summary feeding DerivedBudget.
	deps       int // dependencies (rules + tgds)
	maxUniv    int // most left-hand-side variables of one dependency
	maxExist   int // most existential variables of one dependency
	existTotal int // existential variables across the whole set
	preds      int // distinct predicates
	maxArity   int // widest atom
	consts     int // constant occurrences in the dependencies' atoms
}

// boundCap saturates derived-budget arithmetic: the bound only needs to
// never cut off a terminating chase, so overflow clamps to "effectively
// unbounded" while staying a valid int.
const boundCap = 1 << 60

func satAdd(a, b int) int {
	if a > boundCap-b {
		return boundCap
	}
	return a + b
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > boundCap/b {
		return boundCap
	}
	return a * b
}

func satPow(a, b int) int {
	out := 1
	for i := 0; i < b; i++ {
		out = satMul(out, a)
	}
	return out
}

// DerivedBudget converts a terminating classification into chase limits
// guaranteed to cover the full chase of any database with at most nConsts
// distinct constants: values are bounded level by level (each level of the
// finite-rank / existential-dependency hierarchy fires at most
// deps·vᵐᵃˣᵁⁿⁱᵛ distinct instantiations, each creating at most maxExist
// nulls), and the atom count by preds·vᵐᵃˣᴬʳⁱᵗʸ over the final value bound.
// Arithmetic saturates at boundCap, so astronomically large but finite
// bounds degrade to "effectively unbounded" — sound, because the class
// already proves the chase reaches its fixpoint. Zero limits are returned
// for classes that do not terminate.
func (c Classification) DerivedBudget(nConsts int) (maxAtoms, maxRounds int) {
	if !c.Class.ChaseTerminates() {
		return 0, 0
	}
	// The active domain starts from the database's constants plus any
	// constants the dependencies themselves introduce.
	v := satAdd(satAdd(nConsts, c.consts), 1)
	// One iteration per level of null creation: finite ranks bound the
	// depth for weakly acyclic sets, the existential-dependency order (at
	// most one level per existential variable) for jointly acyclic ones.
	levels := c.MaxRank + c.existTotal + 1
	for i := 0; i < levels; i++ {
		firings := satMul(c.deps, satPow(v, c.maxUniv))
		v = satAdd(v, satMul(firings, c.maxExist))
	}
	preds, arity := c.preds, c.maxArity
	if preds < 1 {
		preds = 1
	}
	if arity < 1 {
		arity = 1
	}
	maxAtoms = satMul(preds, satPow(v, arity))
	return maxAtoms, satAdd(maxAtoms, 1)
}

// posDep is one normalized dependency: a rule read as a full tgd
// (body → head) or a tgd proper, with its variable-occurrence structure
// precomputed as position-node ids.
type posDep struct {
	ref      DepRef
	lhsPos   map[string][]int // var → node ids of left-hand occurrences
	rhsPos   map[string][]int // var → node ids of right-hand occurrences
	lhsOrder []string         // left-hand variables in first-occurrence order
	lhsOcc   map[string]int   // var → number of left-hand occurrences
	exist    []string         // right-hand-only variables, first-occurrence order
}

// PositionGraph is the position dependency graph of a rule + tgd set.
type PositionGraph struct {
	nodes []Position
	index map[Position]int
	// adj is the graph over node ids: each arc is labelled with the index of
	// its dependency in deps and marked when it is special.
	adj  digraph
	deps []posDep

	preds    map[string]bool
	maxArity int
	consts   int // constant occurrences in the dependencies' atoms
}

// NewPositionGraph builds the position graph over the given rules and tgds.
// Rules participate as full tgds (normal edges only, body → head); negated
// body atoms are ignored — safety binds their variables in the positive
// body, so they copy no values a positive atom does not.
func NewPositionGraph(rules []ast.Rule, tgds []ast.TGD) *PositionGraph {
	g := &PositionGraph{index: make(map[Position]int), preds: make(map[string]bool)}
	for i, r := range rules {
		g.addDep(DepRef{Rule: i, TGD: -1}, r.Body, []ast.Atom{r.Head})
	}
	for i, t := range tgds {
		g.addDep(DepRef{Rule: -1, TGD: i}, t.Lhs, t.Rhs)
	}
	return g
}

func (g *PositionGraph) node(p Position) int {
	if i, ok := g.index[p]; ok {
		return i
	}
	i := len(g.nodes)
	g.index[p] = i
	g.nodes = append(g.nodes, p)
	g.adj = append(g.adj, nil)
	return i
}

// varPositions maps each variable of the atoms to the node ids of its
// occurrences (one entry per occurrence, duplicates included), recording
// first-occurrence order and occurrence counts as it goes.
func (g *PositionGraph) varPositions(atoms []ast.Atom, order *[]string, occ map[string]int) map[string][]int {
	pos := make(map[string][]int)
	for _, a := range atoms {
		g.preds[a.Pred] = true
		if len(a.Args) > g.maxArity {
			g.maxArity = len(a.Args)
		}
		for i, tm := range a.Args {
			if !tm.IsVar {
				g.consts++
				continue
			}
			n := g.node(Position{Pred: a.Pred, Col: i})
			if _, seen := pos[tm.Name]; !seen && order != nil {
				*order = append(*order, tm.Name)
			}
			pos[tm.Name] = append(pos[tm.Name], n)
			if occ != nil {
				occ[tm.Name]++
			}
		}
	}
	return pos
}

func (g *PositionGraph) addDep(ref DepRef, lhs, rhs []ast.Atom) {
	d := posDep{ref: ref, lhsOcc: make(map[string]int)}
	d.lhsPos = g.varPositions(lhs, &d.lhsOrder, d.lhsOcc)
	var rhsOrder []string
	d.rhsPos = g.varPositions(rhs, &rhsOrder, nil)
	for _, v := range rhsOrder {
		if _, univ := d.lhsPos[v]; !univ {
			d.exist = append(d.exist, v)
		}
	}
	di := len(g.deps)
	g.deps = append(g.deps, d)

	// Edges: per frontier variable, normal edges to its own right-hand
	// positions and special edges to every existential position of the
	// dependency. Deduplicated per dependency to keep witnesses short.
	type ekey struct {
		from, to int
		special  bool
	}
	seen := make(map[ekey]bool)
	add := func(from, to int, special bool) {
		k := ekey{from, to, special}
		if seen[k] {
			return
		}
		seen[k] = true
		g.adj[from] = append(g.adj[from], arc{to: to, label: di, marked: special})
	}
	var existPos []int
	for _, y := range d.exist {
		existPos = append(existPos, d.rhsPos[y]...)
	}
	for _, x := range d.lhsOrder {
		tos, frontier := d.rhsPos[x]
		if !frontier {
			continue
		}
		for _, from := range d.lhsPos[x] {
			for _, to := range tos {
				add(from, to, false)
			}
			for _, to := range existPos {
				add(from, to, true)
			}
		}
	}
}

// specialCycle returns the witness cycle of the first special edge lying
// inside a strongly connected component, or nil when none does (weak
// acyclicity). Deterministic: first-seen node order, first matching edge,
// shortest return path — the Stratified discipline, with edge origins
// carried along for diagnostics.
func (g *PositionGraph) specialCycle(scc []int) *WACycle {
	nodes, deps, ok := g.adj.cycle(scc, marked)
	if !ok {
		return nil
	}
	w := &WACycle{}
	for _, v := range nodes {
		w.Cycle = append(w.Cycle, g.nodes[v])
	}
	for _, d := range deps {
		w.Origins = append(w.Origins, g.deps[d].ref)
	}
	return w
}

// ranks computes the per-position rank: the maximum number of special edges
// on any path ending at the position, or -1 when unbounded (the position is
// reachable from a component containing an internal special edge).
func (g *PositionGraph) ranks(scc []int, n int) []int {
	var cyclic []int // tails of the special edges inside a component
	for u, arcs := range g.adj {
		for _, a := range arcs {
			if a.marked && scc[u] == scc[a.to] {
				cyclic = append(cyclic, u)
			}
		}
	}
	unbounded := g.adj.reach(cyclic)
	rank := g.adj.longest(scc, n)
	out := make([]int, len(g.nodes))
	for v := range out {
		out[v] = rank[scc[v]]
		if unbounded[v] {
			out[v] = -1
		}
	}
	return out
}

// jaCycle builds the existential-dependency graph — an edge y → y' when
// the dependency of y' has a frontier variable whose every left-hand
// position lies in Ω(y), the positions y's nulls can reach — and returns the
// cycle closed by its first edge inside a strongly connected component as
// witness, or nil when the graph is acyclic (joint acyclicity).
func (g *PositionGraph) jaCycle() []ExistVar {
	// Ω(y) is the saturation of y's own positions under one hyperedge per
	// frontier variable x of a dependency: once every left-hand position of x
	// holds y's nulls, so do x's right-hand positions.
	feeds := make(digraph, len(g.nodes))
	var sources, targets [][]int
	frontier := make([][]int, len(g.deps)) // hyperedge ids per dependency
	for di, d := range g.deps {
		for _, x := range d.lhsOrder {
			rpos, ok := d.rhsPos[x]
			if !ok {
				continue
			}
			for _, p := range d.lhsPos[x] {
				feeds[p] = append(feeds[p], arc{label: len(sources)})
			}
			frontier[di] = append(frontier[di], len(sources))
			sources = append(sources, d.lhsPos[x])
			targets = append(targets, rpos)
		}
	}
	type ev struct {
		dep int
		v   string
	}
	var evs []ev
	for di, d := range g.deps {
		for _, y := range d.exist {
			evs = append(evs, ev{dep: di, v: y})
		}
	}
	adj := make(digraph, len(evs))
	need := make([]int, len(sources))
	for i, e := range evs {
		for h := range need {
			need[h] = len(sources[h])
		}
		omega := feeds.saturate(g.deps[e.dep].rhsPos[e.v], need, func(h int) []int { return targets[h] })
		covered := func(h int) bool {
			return !slices.ContainsFunc(sources[h], func(p int) bool { return !omega[p] })
		}
		for j, t := range evs {
			if slices.ContainsFunc(frontier[t.dep], covered) {
				adj[i] = append(adj[i], arc{to: j})
			}
		}
	}
	comp, _ := adj.components()
	cycle, _, ok := adj.cycle(comp, func(arc) bool { return true })
	if !ok {
		return nil
	}
	out := make([]ExistVar, len(cycle))
	for i, v := range cycle {
		out[i] = ExistVar{Dep: g.deps[evs[v].dep].ref, Var: evs[v].v}
	}
	return out
}

// stickyMarking runs the variable-marking fixpoint: mark every left-hand
// variable missing from its right-hand side, then propagate — a variable
// occurring on some right-hand side at a position where any dependency
// holds a marked left-hand variable becomes marked in its own left-hand
// side — until nothing changes.
func (g *PositionGraph) stickyMarking() []map[string]bool {
	marked := make([]map[string]bool, len(g.deps))
	for di, d := range g.deps {
		marked[di] = make(map[string]bool)
		for _, v := range d.lhsOrder {
			if _, keeps := d.rhsPos[v]; !keeps {
				marked[di][v] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		markedAt := make([]bool, len(g.nodes))
		for di, d := range g.deps {
			for v := range marked[di] {
				for _, p := range d.lhsPos[v] {
					markedAt[p] = true
				}
			}
		}
		for di, d := range g.deps {
			for _, v := range d.lhsOrder {
				if marked[di][v] {
					continue
				}
				for _, p := range d.rhsPos[v] {
					if markedAt[p] {
						marked[di][v] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return marked
}

// markedJoins lists, in dependency order, every marked variable occurring
// more than once in its left-hand side — the sticky violations — with the
// finite-rank flag weak stickiness keys on.
func (g *PositionGraph) markedJoins(marked []map[string]bool, rank []int) []MarkedJoin {
	var out []MarkedJoin
	for di, d := range g.deps {
		for _, v := range d.lhsOrder {
			if !marked[di][v] || d.lhsOcc[v] < 2 {
				continue
			}
			j := MarkedJoin{Dep: d.ref, Var: v, Occurrences: d.lhsOcc[v]}
			seen := make(map[int]bool)
			for _, p := range d.lhsPos[v] {
				if rank[p] >= 0 {
					j.FiniteRank = true
				}
				if !seen[p] {
					seen[p] = true
					j.Positions = append(j.Positions, g.nodes[p])
				}
			}
			out = append(out, j)
		}
	}
	return out
}

// Classify runs the full classifier ladder over the graph.
func (g *PositionGraph) Classify() Classification {
	cl := Classification{
		deps:     len(g.deps),
		preds:    len(g.preds),
		maxArity: g.maxArity,
		consts:   g.consts,
	}
	cl.Full = true
	for _, d := range g.deps {
		if len(d.lhsPos) > cl.maxUniv {
			cl.maxUniv = len(d.lhsPos)
		}
		if len(d.exist) > cl.maxExist {
			cl.maxExist = len(d.exist)
		}
		cl.existTotal += len(d.exist)
		if d.ref.TGD >= 0 && len(d.exist) > 0 {
			cl.Full = false
		}
	}

	scc, n := g.adj.components()
	rank := g.ranks(scc, n)
	cl.Ranks = make(map[Position]int, len(rank))
	for v, r := range rank {
		if r >= 0 {
			cl.Ranks[g.nodes[v]] = r
			if r > cl.MaxRank {
				cl.MaxRank = r
			}
		}
	}

	cl.WAViolation = g.specialCycle(scc)
	if cl.WAViolation == nil {
		cl.Class = TermWeaklyAcyclic
		return cl
	}
	cl.JAViolation = g.jaCycle()
	if cl.JAViolation == nil {
		cl.Class = TermJointlyAcyclic
		return cl
	}
	joins := g.markedJoins(g.stickyMarking(), rank)
	if len(joins) == 0 {
		cl.Class = TermSticky
		return cl
	}
	for i := range joins {
		if !joins[i].FiniteRank {
			cl.Class = TermDivergent
			cl.StickyViolation = &joins[i]
			return cl
		}
	}
	cl.Class = TermWeaklySticky
	cl.StickyViolation = &joins[0]
	return cl
}

// ClassifyTGDs classifies the chase-termination behavior of running rules
// and tgds together — the combined [P, T] application of Section VIII. The
// result is deterministic in the input order (witness selection follows
// first-occurrence order throughout).
func ClassifyTGDs(rules []ast.Rule, tgds []ast.TGD) Classification {
	return NewPositionGraph(rules, tgds).Classify()
}

// FormatPositions renders positions comma-separated in a stable order
// (occurrence order as given).
func FormatPositions(ps []Position) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}
