package rewrite

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/workload"
)

// equivalentOnEDBs samples random EDBs and compares the two programs'
// outputs restricted to the predicates of p1 (pruning can drop a predicate
// entirely).
func equivalentOnEDBs(t *testing.T, p1, p2 *ast.Program, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	idb := p1.IDBPredicates()
	sharedIDB := p2.IDBPredicates()
	for trial := 0; trial < 20; trial++ {
		d := db.New()
		n := 2 + rng.Intn(4)
		for _, sig := range p1.Predicates() {
			if idb[sig.Name] {
				continue
			}
			for k := 0; k < 1+rng.Intn(5); k++ {
				args := make([]ast.Const, sig.Arity)
				for i := range args {
					args[i] = ast.Int(int64(rng.Intn(n)))
				}
				d.AddTuple(sig.Name, args)
			}
		}
		o1 := eval.MustEval(p1, d)
		o2 := eval.MustEval(p2, d)
		// Compare on predicates both programs still define, plus the EDB.
		for _, f := range o1.Facts() {
			if idb[f.Pred] && !sharedIDB[f.Pred] {
				continue
			}
			if !o2.Has(f) {
				t.Fatalf("trial %d: %v lost after transformation\n%s", trial, f, d)
			}
		}
		for _, f := range o2.Facts() {
			if !o1.Has(f) {
				t.Fatalf("trial %d: %v invented by transformation\n%s", trial, f, d)
			}
		}
	}
}

func TestRemoveUnreachable(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		Junk(x) :- B(x), G(x, x).
		MoreJunk(x) :- Junk(x).
	`)
	out := RemoveUnreachable(p, "G")
	if len(out.Rules) != 2 {
		t.Fatalf("unreachable rules kept:\n%v", out)
	}
	// Junk is reachable FROM MoreJunk, so asking for MoreJunk keeps all.
	all := RemoveUnreachable(p, "MoreJunk")
	if len(all.Rules) != 4 {
		t.Fatalf("needed rules dropped:\n%v", all)
	}
	// Query answers are preserved for the kept predicate.
	edb := db.FromFacts([]ast.GroundAtom{
		{Pred: "A", Args: []ast.Const{ast.Int(1), ast.Int(2)}},
		{Pred: "B", Args: []ast.Const{ast.Int(1)}},
	})
	o1 := eval.MustEval(p, edb)
	o2 := eval.MustEval(out, edb)
	for _, f := range o1.Facts() {
		if f.Pred == "G" && !o2.Has(f) {
			t.Fatalf("G fact lost: %v", f)
		}
	}
}

func TestRemoveUnfounded(t *testing.T) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		Ghost(x) :- Phantom(x, y), A(y, x).
		Phantom(x, y) :- Phantom(y, x).
		Uses(x) :- Ghost(x), A(x, x).
	`)
	// Phantom has no base case, so Phantom, Ghost, and Uses rules are dead.
	out := RemoveUnfounded(p)
	if len(out.Rules) != 2 {
		t.Fatalf("unfounded rules kept:\n%v", out)
	}
	equivalentOnEDBs(t, p, out, 3)
}

func TestRemoveUnfoundedKeepsNegation(t *testing.T) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Dead(x) :- Node(x), !Reach(x).
	`)
	out := RemoveUnfounded(p)
	if len(out.Rules) != 2 {
		t.Fatalf("negated rule wrongly removed:\n%v", out)
	}
}

func TestTransformationsCompose(t *testing.T) {
	// Prune, and check equivalence end to end on a program with both
	// unfounded and unreachable rules.
	p := parser.MustParseProgram(`
		Base(x, y) :- E(x, y).
		Path(x, z) :- Base(x, y), Path(y, z).
		Path(x, y) :- Base(x, y).
		Orphan(x) :- NoBase(x, y).
		NoBase(x, y) :- NoBase(y, x).
	`)
	out := RemoveUnreachable(RemoveUnfounded(p), "Path")
	if len(out.Rules) != 3 {
		t.Fatalf("dead rules kept:\n%v", out)
	}
	equivalentOnEDBs(t, RemoveUnreachable(p, "Path"), out, 4)
}

// TestAddInputRulesSectionIV executes the paper's Section IV observation:
// with input rules added, plain containment over EDBs (sampled) coincides
// with uniform containment of the original programs — the B@0 relations
// smuggle initial IDB facts through the EDB.
func TestAddInputRulesSectionIV(t *testing.T) {
	p1 := workload.TransitiveClosure()
	p2 := workload.TransitiveClosureLinear()
	p1p := AddInputRules(p1)
	p2p := AddInputRules(p2)
	if len(p1p.Rules) != len(p1.Rules)+1 || p1p.Rules[2].Body[0].Pred != "G@0" {
		t.Fatalf("input rules malformed:\n%v", p1p)
	}

	// Uniform verdicts on the originals (Example 6): p2 ⊑ᵘ p1, not conversely.
	// Sample plain containment of the primed programs on EDBs that include
	// G@0 facts: the forward direction must hold everywhere; the converse
	// must fail on some sample (the Example 4 counterexample smuggled in).
	rng := rand.New(rand.NewSource(71))
	sawConverseFail := false
	for trial := 0; trial < 30; trial++ {
		d := db.New()
		n := 2 + rng.Intn(4)
		for e := 0; e < 2*n; e++ {
			d.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{
				ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))}})
			if rng.Intn(2) == 0 {
				d.Add(ast.GroundAtom{Pred: "G@0", Args: []ast.Const{
					ast.Int(int64(rng.Intn(n))), ast.Int(int64(rng.Intn(n)))}})
			}
		}
		o1 := eval.MustEval(p1p, d)
		o2 := eval.MustEval(p2p, d)
		if !o1.Contains(o2) {
			t.Fatalf("trial %d: P2' ⊄ P1' on\n%s", trial, d)
		}
		if !o2.Contains(o1) {
			sawConverseFail = true
		}
	}
	if !sawConverseFail {
		t.Fatal("converse containment never failed; samples too weak to witness Example 4")
	}

	// And the primed programs' PLAIN containment direction agrees with the
	// chase's UNIFORM verdict: since the primed programs have input rules
	// for every IDB predicate, uniform and plain containment coincide, so
	// the chase on the primed pair answers the plain question exactly.
	v, _, err := chase.UniformlyContains(p1p, p2p)
	if err != nil || v != chase.Yes {
		t.Fatalf("chase on primed programs: %v %v", v, err)
	}
	v, _, err = chase.UniformlyContains(p2p, p1p)
	if err != nil || v != chase.No {
		t.Fatalf("chase converse on primed programs: %v %v", v, err)
	}
}

// AddInputRules implements the observation closing Section IV of the
// paper: adding, for every intentional predicate B, a rule
//
//	B(x₁,…,xₙ) :- B@0(x₁,…,xₙ)
//
// over a fresh extensional predicate B@0 turns uniform containment into
// plain containment — P₂ ⊑ᵘ P₁ iff P₂′ ⊑ P₁′ — because an EDB for the
// primed program can smuggle arbitrary initial IDB relations in through
// the B@0 relations. The '@' in the generated name cannot occur in parsed
// predicates, so no collision is possible.
func AddInputRules(p *ast.Program) *ast.Program {
	out := p.Clone()
	idb := p.IDBPredicates()
	arity := map[string]int{}
	for _, r := range p.Rules {
		if idb[r.Head.Pred] {
			arity[r.Head.Pred] = r.Head.Arity()
		}
	}
	names := make([]string, 0, len(arity))
	for name := range arity {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := arity[name]
		args := make([]ast.Term, n)
		for i := range args {
			args[i] = ast.Var(fmt.Sprintf("x%d", i+1))
		}
		out.Rules = append(out.Rules, ast.Rule{
			Head: ast.Atom{Pred: name, Args: args},
			Body: []ast.Atom{{Pred: name + "@0", Args: append([]ast.Term(nil), args...)}},
		})
	}
	return out
}
