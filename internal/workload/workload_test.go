package workload

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/minimize"
)

func TestChain(t *testing.T) {
	d := Chain("A", 5)
	if d.Len() != 5 {
		t.Fatalf("chain has %d edges", d.Len())
	}
	if !d.HasTuple("A", []ast.Const{ast.Int(0), ast.Int(1)}) {
		t.Fatal("missing edge 0->1")
	}
	if d.HasTuple("A", []ast.Const{ast.Int(5), ast.Int(6)}) {
		t.Fatal("phantom edge 5->6")
	}
}

func TestCycleTreeGridComplete(t *testing.T) {
	if got := Cycle("A", 4).Len(); got != 4 {
		t.Fatalf("cycle: %d", got)
	}
	// Complete tree with fanout 2, depth 3: 2 + 4 + 8 = 14 edges.
	if got := Tree("A", 2, 3).Len(); got != 14 {
		t.Fatalf("tree: %d", got)
	}
	// 3x3 grid: 2*3 + 3*2 = 12 edges.
	if got := Grid("A", 3, 3).Len(); got != 12 {
		t.Fatalf("grid: %d", got)
	}
	if got := Complete("A", 4).Len(); got != 12 {
		t.Fatalf("complete: %d", got)
	}
}

func TestRandomDigraphDeterministic(t *testing.T) {
	a := RandomDigraph("A", 10, 30, 7)
	b := RandomDigraph("A", 10, 30, 7)
	if !a.Equal(b) {
		t.Fatal("same seed, different graphs")
	}
	c := RandomDigraph("A", 10, 30, 8)
	if a.Equal(c) {
		t.Fatal("different seeds, same graph (very unlikely)")
	}
}

func TestProgramsValid(t *testing.T) {
	progs := map[string]interface{ Validate() error }{
		"tc":        TransitiveClosure(),
		"tcLinear":  TransitiveClosureLinear(),
		"tcGuarded": TransitiveClosureGuarded(),
		"ex19":      Example19Program(),
		"ancestor":  Ancestor(),
		"samegen":   SameGeneration(),
		"layered":   Layered(6),
	}
	for name, p := range progs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLayeredShape(t *testing.T) {
	p := Layered(4)
	if len(p.Rules) != 4 {
		t.Fatalf("layered(4) has %d rules", len(p.Rules))
	}
	// Evaluating over a chain: P4 holds paths of length exactly 4.
	out := eval.MustEval(p, Chain("E", 6))
	rel := out.Relation("P4")
	if rel == nil || rel.Len() != 3 {
		t.Fatalf("P4 over 6-chain: %v", out)
	}
}

func TestInjectRedundantAtomsAreRedundant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := TransitiveClosure()
	for k := 1; k <= 4; k++ {
		r := InjectRedundantAtoms(base.Rules[1], k, rng)
		if len(r.Body) != 2+k {
			t.Fatalf("k=%d: body size %d", k, len(r.Body))
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("injected rule invalid: %v", err)
		}
		// The injected rule is uniformly equivalent to the original.
		eq, err := chase.UniformlyEquivalent(
			base.ReplaceRule(1, r), base)
		if err != nil {
			t.Fatal(err)
		}
		if eq != chase.Yes {
			t.Fatalf("k=%d: injection changed semantics:\n%v", k, r)
		}
		// And the minimizer removes exactly k atoms.
		min, trace, err := minimize.Rule(context.Background(), r, minimize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if trace.AtomsRemoved() != k {
			t.Fatalf("k=%d: minimizer removed %d atoms from %v giving %v", k, trace.AtomsRemoved(), r, min)
		}
	}
}

func TestInjectRedundantRulesAreRedundant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := TransitiveClosure()
	for k := 1; k <= 3; k++ {
		p := InjectRedundantRules(base, k, rng)
		if len(p.Rules) != 2+k {
			t.Fatalf("k=%d: %d rules", k, len(p.Rules))
		}
		eq, err := chase.UniformlyEquivalent(p, base)
		if err != nil {
			t.Fatal(err)
		}
		if eq != chase.Yes {
			t.Fatalf("k=%d: injected rules changed semantics:\n%v", k, p)
		}
		min, trace, err := minimize.Program(context.Background(), p, minimize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(min.Rules) != 2 {
			t.Fatalf("k=%d: minimized to %d rules (removed %d rules, %d atoms)",
				k, len(min.Rules), trace.RulesRemoved(), trace.AtomsRemoved())
		}
	}
}

func TestInjectIntoProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := InjectRedundantAtomsProgram(TransitiveClosure(), 2, rng)
	if p.BodyAtomCount() != TransitiveClosure().BodyAtomCount()+4 {
		t.Fatalf("BodyAtomCount = %d", p.BodyAtomCount())
	}
}

func TestRandomProgramAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := RandomProgram(rng, 1+rng.Intn(5))
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random program: %v\n%v", trial, err, p)
		}
	}
}

func TestRandomDBRespectsSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := RandomProgram(rng, 3)
	d := RandomDB(rng, p, 5, 4)
	idb := p.IDBPredicates()
	for _, f := range d.Facts() {
		if idb[f.Pred] {
			t.Fatalf("RandomDB generated IDB fact %v", f)
		}
		for _, c := range f.Args {
			if int64(c) < 0 || int64(c) >= 5 {
				t.Fatalf("constant out of domain: %v", f)
			}
		}
	}
}
