package main

import (
	"fmt"
	"strconv"
	"strings"
)

// Generators. Everything the engine receives is Datalog source text or a
// JSON body built from these values; bench keeps its own small program
// representation so the oracles can reason about the same inputs without
// touching engine code.

type term struct {
	isVar bool
	name  string
	val   int64
}

type atom struct {
	pred string
	args []term
}

type rule struct {
	head atom
	body []atom
}

type program struct{ rules []rule }

func v(name string) term { return term{isVar: true, name: name} }
func c(n int64) term     { return term{val: n} }
func at(pred string, args ...term) atom {
	return atom{pred: pred, args: args}
}

func (t term) String() string {
	if t.isVar {
		return t.name
	}
	return strconv.FormatInt(t.val, 10)
}

func (a atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.pred)
	sb.WriteByte('(')
	for i, t := range a.args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

func (r rule) String() string {
	parts := make([]string, len(r.body))
	for i, a := range r.body {
		parts[i] = a.String()
	}
	return r.head.String() + " :- " + strings.Join(parts, ", ") + "."
}

func (p program) String() string {
	var sb strings.Builder
	for _, r := range p.rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (a atom) clone() atom {
	return atom{pred: a.pred, args: append([]term(nil), a.args...)}
}

func (r rule) clone() rule {
	out := rule{head: r.head.clone(), body: make([]atom, len(r.body))}
	for i, a := range r.body {
		out.body[i] = a.clone()
	}
	return out
}

func (p program) clone() program {
	out := program{rules: make([]rule, len(p.rules))}
	for i, r := range p.rules {
		out.rules[i] = r.clone()
	}
	return out
}

// mapAtoms applies f to every atom of p in place.
func (p program) mapAtoms(f func(*atom)) {
	for i := range p.rules {
		f(&p.rules[i].head)
		for j := range p.rules[i].body {
			f(&p.rules[i].body[j])
		}
	}
}

// renamed returns a copy of p with predSuffix appended to every predicate
// and varSuffix to every variable: a fresh predicate space makes a program
// the engine has never seen, a fresh variable space an alpha-renamed repeat.
func (p program) renamed(predSuffix, varSuffix string) program {
	out := p.clone()
	out.mapAtoms(func(a *atom) { *a = a.renamed(predSuffix, varSuffix) })
	return out
}

func (a atom) renamed(predSuffix, varSuffix string) atom {
	out := a.clone()
	out.pred += predSuffix
	for i, t := range out.args {
		if t.isVar {
			out.args[i].name = t.name + varSuffix
		}
	}
	return out
}

// preds returns predicate → arity over heads and bodies, and the set of
// intentional (head) predicates.
func (p program) preds() (arity map[string]int, idb map[string]bool) {
	arity = make(map[string]int)
	idb = make(map[string]bool)
	for _, r := range p.rules {
		idb[r.head.pred] = true
		arity[r.head.pred] = len(r.head.args)
		for _, a := range r.body {
			arity[a.pred] = len(a.args)
		}
	}
	return arity, idb
}

// --- Redundancy injection ---------------------------------------------------

// injectAtoms appends k body atoms to r, each a copy of an existing body
// atom with one argument replaced by a fresh variable. The source atom
// subsumes the copy, so it is redundant under uniform equivalence and a
// correct Fig. 1 pass must delete it (or an atom it makes redundant).
func injectAtoms(r rule, k int, rg *rng, fresh *int) rule {
	out := r.clone()
	for i := 0; i < k; i++ {
		src := out.body[rg.intn(len(out.body))].clone()
		src.args[rg.intn(len(src.args))] = v("red" + strconv.Itoa(*fresh))
		*fresh++
		out.body = append(out.body, src)
	}
	return out
}

// bloat returns p with atoms redundant atoms and rules redundant rules
// injected, and the injected total. An injected rule is a variable-renamed
// specialization of an existing rule (one extra subsumed atom), hence
// uniformly contained in its source and removable by the Fig. 2 rule phase.
func bloat(p program, atoms, rules int, rg *rng) (program, int) {
	out := p.clone()
	fresh := 0
	for i := 0; i < atoms; i++ {
		j := rg.intn(len(out.rules))
		out.rules[j] = injectAtoms(out.rules[j], 1, rg, &fresh)
	}
	for i := 0; i < rules; i++ {
		src := p.rules[rg.intn(len(p.rules))].clone()
		tag := "c" + strconv.Itoa(i)
		ren := func(a *atom) {
			for k, t := range a.args {
				if t.isVar {
					a.args[k].name = t.name + tag
				}
			}
		}
		ren(&src.head)
		for k := range src.body {
			ren(&src.body[k])
		}
		out.rules = append(out.rules, injectAtoms(src, 1, rg, &fresh))
	}
	// An injected rule carries one injected atom of its own.
	return out, atoms + 2*rules
}

// --- Program templates ------------------------------------------------------

// template is one base program with what the workloads need to know about
// it by construction.
type template struct {
	name string
	prog program
	// essential is the index of a rule whose deletion changes the program's
	// meaning (−1 when none is known): dropping it yields a program that is
	// not uniformly equivalent to prog.
	essential int
	// query is a bound-argument query on an intentional predicate.
	query atom
}

func layered(n int) template {
	p := program{rules: []rule{{head: at("P1", v("x"), v("z")), body: []atom{at("E", v("x"), v("z"))}}}}
	for i := 2; i <= n; i++ {
		p.rules = append(p.rules, rule{
			head: at(fmt.Sprintf("P%d", i), v("x"), v("z")),
			body: []atom{at(fmt.Sprintf("P%d", i-1), v("x"), v("y")), at("E", v("y"), v("z"))},
		})
	}
	return template{name: fmt.Sprintf("layered%d", n), prog: p, essential: 0,
		query: at(fmt.Sprintf("P%d", n), c(1), v("y"))}
}

func tcNonLinear() template {
	return template{name: "tc", essential: 0, query: at("G", c(1), v("y")), prog: program{rules: []rule{
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("z"))}},
		{head: at("G", v("x"), v("z")), body: []atom{at("G", v("x"), v("y")), at("G", v("y"), v("z"))}},
	}}}
}

func tcRightLinear() template {
	return template{name: "rltc", essential: 0, query: at("G", c(1), v("y")), prog: program{rules: []rule{
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("z"))}},
		{head: at("G", v("x"), v("z")), body: []atom{at("A", v("x"), v("y")), at("G", v("y"), v("z"))}},
	}}}
}

func sameGeneration() template {
	return template{name: "same-gen", essential: 0, query: at("Sg", c(1), v("y")), prog: program{rules: []rule{
		{head: at("Sg", v("x"), v("y")), body: []atom{at("Flat", v("x"), v("y"))}},
		{head: at("Sg", v("x"), v("y")), body: []atom{at("Up", v("x"), v("u")), at("Sg", v("u"), v("w")), at("Down", v("w"), v("y"))}},
	}}}
}

// pointsTo is the four-rule Andersen analysis: mutual recursion through
// PointsTo and three-way joins.
func pointsTo() template {
	return template{name: "pointsto", essential: 0, query: at("PointsTo", c(1), v("a")), prog: program{rules: []rule{
		{head: at("PointsTo", v("p"), v("a")), body: []atom{at("AddrOf", v("p"), v("a"))}},
		{head: at("PointsTo", v("p"), v("x")), body: []atom{at("Assign", v("p"), v("q")), at("PointsTo", v("q"), v("x"))}},
		{head: at("PointsTo", v("p"), v("x")), body: []atom{at("Load", v("p"), v("q")), at("PointsTo", v("q"), v("r")), at("PointsTo", v("r"), v("x"))}},
		{head: at("PointsTo", v("r"), v("x")), body: []atom{at("Store", v("p"), v("q")), at("PointsTo", v("p"), v("r")), at("PointsTo", v("q"), v("x"))}},
	}}}
}

// randomBase is a random range-restricted program over binary EDB
// predicates A/B and IDB predicates P/Q: nRules rules with bodies of one to
// three atoms, head variables drawn from the body.
func randomBase(rg *rng, id, nRules int) template {
	vars := []string{"x", "y", "z", "w"}
	edb := []string{"A", "B"}
	idb := []string{"P", "Q"}
	var p program
	for i := 0; i < nRules; i++ {
		n := 1 + rg.intn(3)
		body := make([]atom, n)
		var bodyVars []string
		for j := range body {
			pred := edb[rg.intn(len(edb))]
			if i > 0 && rg.intn(3) == 0 {
				pred = idb[rg.intn(min(i, len(idb)))]
			}
			v1, v2 := vars[rg.intn(len(vars))], vars[rg.intn(len(vars))]
			if rg.intn(8) == 0 {
				body[j] = at(pred, v(v1), c(int64(rg.intn(3))))
				bodyVars = append(bodyVars, v1)
			} else {
				body[j] = at(pred, v(v1), v(v2))
				bodyVars = append(bodyVars, v1, v2)
			}
		}
		head := at(idb[min(i, len(idb)-1)],
			v(bodyVars[rg.intn(len(bodyVars))]), v(bodyVars[rg.intn(len(bodyVars))]))
		p.rules = append(p.rules, rule{head: head, body: body})
	}
	return template{name: "random" + strconv.Itoa(id), prog: p, essential: -1, query: at("P", c(1), v("y"))}
}

// --- Graphs -----------------------------------------------------------------

type edge struct{ from, to int }

// randomDigraph returns `edges` distinct non-loop edges over [0, nodes).
func randomDigraph(rg *rng, nodes, edges int) []edge {
	seen := make(map[edge]bool, edges)
	out := make([]edge, 0, edges)
	for len(out) < edges {
		e := edge{rg.intn(nodes), rg.intn(nodes)}
		if e.from == e.to || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// relabel applies a node permutation to the edges and shuffles their order:
// the seed-dependent part of a graph input.
func relabel(es []edge, perm []int, rg *rng) []edge {
	out := make([]edge, len(es))
	for i, e := range es {
		out[i] = edge{perm[e.from], perm[e.to]}
	}
	rg.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fact is one ground atom over integers, bench's own currency.
type fact struct {
	pred string
	args []int64
}

func (f fact) String() string {
	var sb strings.Builder
	sb.WriteString(f.pred)
	sb.WriteByte('(')
	for i, a := range f.args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatInt(a, 10))
	}
	sb.WriteString(").")
	return sb.String()
}

func edgeFacts(pred string, es []edge) []fact {
	out := make([]fact, len(es))
	for i, e := range es {
		out[i] = fact{pred, []int64{int64(e.from), int64(e.to)}}
	}
	return out
}

// factsSource renders facts as Datalog source text, one per line.
func factsSource(fs []fact) string {
	var sb strings.Builder
	for _, f := range fs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
