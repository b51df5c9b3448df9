// Package workload generates the synthetic programs and extensional
// databases used by the experiment suite (DESIGN.md, experiments E1–E15).
// The paper has no empirical section, so these workloads operationalize its
// prose claims: programs with a controlled amount of injected redundancy
// (for measuring the Figs. 1–2 minimizer), graph EDBs of controlled shape
// and size (for measuring evaluation cost), and layered programs for the
// scaling experiments.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
)

// --- EDB generators -------------------------------------------------------

func edge(pred string, a, b int64) ast.GroundAtom {
	return ast.GroundAtom{Pred: pred, Args: []ast.Const{ast.Int(a), ast.Int(b)}}
}

// Chain returns the EDB {pred(0,1), …, pred(n-1,n)}.
func Chain(pred string, n int) *db.Database {
	d := db.New()
	for i := 0; i < n; i++ {
		d.Add(edge(pred, int64(i), int64(i+1)))
	}
	return d
}

// Cycle returns a directed n-cycle.
func Cycle(pred string, n int) *db.Database {
	d := db.New()
	for i := 0; i < n; i++ {
		d.Add(edge(pred, int64(i), int64((i+1)%n)))
	}
	return d
}

// RandomDigraph returns a digraph with the given node count and (up to)
// edge count, sampled uniformly with the given seed. Duplicate edges are
// deduplicated, so the result may hold slightly fewer edges.
func RandomDigraph(pred string, nodes, edges int, seed int64) *db.Database {
	rng := rand.New(rand.NewSource(seed))
	d := db.New()
	for e := 0; e < edges; e++ {
		d.Add(edge(pred, int64(rng.Intn(nodes)), int64(rng.Intn(nodes))))
	}
	return d
}

// Tree returns a complete tree with the given fanout and depth; edges point
// from parent to child. Nodes are numbered in BFS order from 0.
func Tree(pred string, fanout, depth int) *db.Database {
	d := db.New()
	next := int64(1)
	frontier := []int64{0}
	for level := 0; level < depth; level++ {
		var newFrontier []int64
		for _, p := range frontier {
			for c := 0; c < fanout; c++ {
				d.Add(edge(pred, p, next))
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
	return d
}

// Grid returns a w×h grid with rightward and downward edges; node (i,j) is
// numbered i*h + j.
func Grid(pred string, w, h int) *db.Database {
	d := db.New()
	id := func(i, j int) int64 { return int64(i*h + j) }
	for i := 0; i < w; i++ {
		for j := 0; j < h; j++ {
			if i+1 < w {
				d.Add(edge(pred, id(i, j), id(i+1, j)))
			}
			if j+1 < h {
				d.Add(edge(pred, id(i, j), id(i, j+1)))
			}
		}
	}
	return d
}

// Complete returns the complete digraph on n nodes (self-loops excluded).
func Complete(pred string, n int) *db.Database {
	d := db.New()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Add(edge(pred, int64(i), int64(j)))
			}
		}
	}
	return d
}

// --- Program generators ----------------------------------------------------

// TransitiveClosure returns Example 1's program (doubled recursive rule).
func TransitiveClosure() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
	`)
}

// TransitiveClosureLinear returns Example 4's right-linear variant.
func TransitiveClosureLinear() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
	`)
}

// TransitiveClosureGuarded returns Example 11's P1: transitive closure with
// the redundant-under-equivalence guard A(y,w) in the recursive rule.
func TransitiveClosureGuarded() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
}

// Example19Program returns Example 19's P1.
func Example19Program() *ast.Program {
	return parser.MustParseProgram(`
		G(x, z) :- A(x, z), C(z).
		G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).
	`)
}

// Ancestor returns the ancestor program over Par.
func Ancestor() *ast.Program {
	return parser.MustParseProgram(`
		Anc(x, y) :- Par(x, y).
		Anc(x, z) :- Par(x, y), Anc(y, z).
	`)
}

// SameGeneration returns the classic same-generation program.
func SameGeneration() *ast.Program {
	return parser.MustParseProgram(`
		Sg(x, y) :- Flat(x, y).
		Sg(x, y) :- Up(x, u), Sg(u, v), Down(v, y).
	`)
}

// Layered returns a program with n chained IDB layers:
//
//	P1(x,z) :- E(x,z).
//	Pi(x,z) :- Pi-1(x,y), E(y,z).        (i = 2..n)
//
// used by the scaling experiments: program size grows linearly with n.
func Layered(n int) *ast.Program {
	p := ast.NewProgram()
	p.Rules = append(p.Rules, parser.MustParseProgram(`P1(x, z) :- E(x, z).`).Rules...)
	for i := 2; i <= n; i++ {
		src := fmt.Sprintf(`P%d(x, z) :- P%d(x, y), E(y, z).`, i, i-1)
		p.Rules = append(p.Rules, parser.MustParseProgram(src).Rules...)
	}
	return p
}

// --- Redundancy injection ---------------------------------------------------

// InjectRedundantAtoms returns a copy of r with k extra body atoms, each a
// copy of an existing body atom with one argument position replaced by a
// fresh variable. Every injected atom is subsumed by its source atom, so it
// is redundant under uniform equivalence and the Fig. 1 minimizer can
// always remove it.
func InjectRedundantAtoms(r ast.Rule, k int, rng *rand.Rand) ast.Rule {
	out := r.Clone()
	fresh := 0
	for i := 0; i < k; i++ {
		if len(out.Body) == 0 {
			break
		}
		src := out.Body[rng.Intn(len(out.Body))].Clone()
		if len(src.Args) == 0 {
			continue
		}
		pos := rng.Intn(len(src.Args))
		src.Args[pos] = ast.Var(fmt.Sprintf("red%d", fresh))
		fresh++
		out.Body = append(out.Body, src)
	}
	return out
}

// InjectRedundantAtomsProgram applies InjectRedundantAtoms to every rule of
// p.
func InjectRedundantAtomsProgram(p *ast.Program, kPerRule int, rng *rand.Rand) *ast.Program {
	out := p.Clone()
	for i := range out.Rules {
		out.Rules[i] = InjectRedundantAtoms(out.Rules[i], kPerRule, rng)
	}
	return out
}

// InjectRedundantRules returns a copy of p with k extra rules, each a
// specialization of an existing rule (renamed variables plus one subsumed
// extra atom), hence uniformly contained in the original and removable by
// the Fig. 2 rule phase.
func InjectRedundantRules(p *ast.Program, k int, rng *rand.Rand) *ast.Program {
	out := p.Clone()
	if len(p.Rules) == 0 {
		return out
	}
	for i := 0; i < k; i++ {
		src := p.Rules[rng.Intn(len(p.Rules))]
		tag := fmt.Sprintf("c%d", i)
		dup := src.Rename(func(v string) string { return v + tag })
		dup = InjectRedundantAtoms(dup, 1, rng)
		out.Rules = append(out.Rules, dup)
	}
	return out
}

// RandomProgram generates a random valid (range-restricted) pure-Datalog
// program for property-based testing: nRules rules over binary EDB
// predicates A/B and IDB predicates P/Q, with bodies of 1..3 atoms and the
// head variables drawn from the body. The same rng state yields the same
// program.
func RandomProgram(rng *rand.Rand, nRules int) *ast.Program {
	vars := []string{"x", "y", "z", "w"}
	edb := []string{"A", "B"}
	idbPreds := []string{"P", "Q"}
	p := ast.NewProgram()
	for i := 0; i < nRules; i++ {
		n := 1 + rng.Intn(3)
		body := make([]ast.Atom, n)
		var bodyVars []string
		for j := range body {
			pred := edb[rng.Intn(len(edb))]
			// Occasionally reference an IDB predicate for recursion, but
			// only ones guaranteed to be intentional (rule 0 defines P).
			if i > 0 && rng.Intn(3) == 0 {
				pred = idbPreds[rng.Intn(len(idbPreds))%min(i, len(idbPreds))]
			}
			v1 := vars[rng.Intn(len(vars))]
			v2 := vars[rng.Intn(len(vars))]
			if rng.Intn(8) == 0 {
				body[j] = ast.NewAtom(pred, ast.Var(v1), ast.IntTerm(int64(rng.Intn(3))))
				bodyVars = append(bodyVars, v1)
			} else {
				body[j] = ast.NewAtom(pred, ast.Var(v1), ast.Var(v2))
				bodyVars = append(bodyVars, v1, v2)
			}
		}
		head := ast.NewAtom(idbPreds[min(i, len(idbPreds)-1)],
			ast.Var(bodyVars[rng.Intn(len(bodyVars))]),
			ast.Var(bodyVars[rng.Intn(len(bodyVars))]))
		p.Rules = append(p.Rules, ast.Rule{Head: head, Body: body})
	}
	return p
}

// RandomDB generates a random database over the extensional predicates of
// p, with constants drawn from [0, domain).
func RandomDB(rng *rand.Rand, p *ast.Program, domain, factsPerPred int) *db.Database {
	d := db.New()
	idb := p.IDBPredicates()
	for _, sig := range p.Predicates() {
		if idb[sig.Name] {
			continue
		}
		for k := 0; k < factsPerPred; k++ {
			args := make([]ast.Const, sig.Arity)
			for i := range args {
				args[i] = ast.Int(int64(rng.Intn(domain)))
			}
			d.AddTuple(sig.Name, args)
		}
	}
	return d
}
