package ast

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genRule builds a random rule with a positive and, sometimes, a negated
// body; well-formedness is beside the point for copying.
func genRule(rng *rand.Rand) Rule {
	r := Rule{Head: genAtom(rng), Pos: Pos{Line: 1 + rng.Intn(9), Col: 1 + rng.Intn(9)}}
	for i := rng.Intn(4); i >= 0; i-- {
		r.Body = append(r.Body, genAtom(rng))
	}
	for i := rng.Intn(3); i > 0; i-- {
		r.NegBody = append(r.NegBody, genAtom(rng))
	}
	return r
}

func genProgram(rng *rand.Rand) *Program {
	p := NewProgram()
	for i := rng.Intn(6); i >= 0; i-- {
		p.Rules = append(p.Rules, genRule(rng))
	}
	return p
}

// atomSlot names one atom of a program: rule r, part 0 (head), 1 (body) or
// 2 (negated body), index i within the part.
type atomSlot struct{ r, part, i int }

func (s atomSlot) of(p *Program) *Atom {
	switch s.part {
	case 0:
		return &p.Rules[s.r].Head
	case 1:
		return &p.Rules[s.r].Body[s.i]
	}
	return &p.Rules[s.r].NegBody[s.i]
}

func slots(p *Program) []atomSlot {
	var out []atomSlot
	for r, rule := range p.Rules {
		out = append(out, atomSlot{r, 0, 0})
		for i := range rule.Body {
			out = append(out, atomSlot{r, 1, i})
		}
		for i := range rule.NegBody {
			out = append(out, atomSlot{r, 2, i})
		}
	}
	return out
}

// atomStrings renders every atom of p, so a write that lands outside its
// own slice shows up as a changed entry.
func atomStrings(p *Program) map[atomSlot]string {
	out := make(map[atomSlot]string)
	for _, s := range slots(p) {
		out[s] = s.of(p).String()
	}
	return out
}

// checkNoAliasing mutates every Body, NegBody and Args slice of copies made
// by clone — appending to it, then writing one of its elements — and
// requires that nothing but the written element changed: no other atom of
// the copy and nothing of the original.
func checkNoAliasing(t *testing.T, orig *Program, clone func() *Program) {
	t.Helper()
	want := atomStrings(orig)
	junkAtom := NewAtom("JUNK", IntTerm(99), IntTerm(99), IntTerm(99))
	check := func(c *Program, written atomSlot, what string) {
		t.Helper()
		for s, w := range atomStrings(c) {
			if s != written && w != want[s] {
				t.Fatalf("%s: atom %v of the copy became %s, was %s\n%s", what, s, w, want[s], orig)
			}
		}
		for s, w := range atomStrings(orig) {
			if w != want[s] {
				t.Fatalf("%s: atom %v of the original became %s, was %s", what, s, w, want[s])
			}
		}
	}
	none := atomSlot{-1, -1, -1}
	for r := range orig.Rules {
		for part, atoms := range [][]Atom{orig.Rules[r].Body, orig.Rules[r].NegBody} {
			if len(atoms) == 0 {
				continue
			}
			c := clone()
			s := atomSlot{r, part + 1, 0}
			body := &c.Rules[r].Body
			if part == 1 {
				body = &c.Rules[r].NegBody
			}
			_ = append(*body, junkAtom, junkAtom)
			check(c, none, "append to a body")
			(*body)[0] = junkAtom
			check(c, s, "write to a body")
		}
	}
	for _, s := range slots(orig) {
		c := clone()
		a := s.of(c)
		_ = append(a.Args, Var("junk"), Var("junk"))
		check(c, none, "append to an atom's arguments")
		a.Args[0] = Var("junk")
		check(c, s, "write to an atom's arguments")
	}
}

// TestQuickCloneNoAliasing: a clone's slices are carved from shared blocks,
// capped, so no append or element write through one reaches a neighbouring
// rule or atom, or the original.
func TestQuickCloneNoAliasing(t *testing.T) {
	f := func(seed int64) bool {
		p := genProgram(rand.New(rand.NewSource(seed)))
		checkNoAliasing(t, p, p.Clone)
		checkNoAliasing(t, p, func() *Program {
			q := NewProgram()
			for _, r := range p.Rules {
				q.Rules = append(q.Rules, r.Clone())
			}
			return q
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCloneAllocations pins the block layout: a program copy is the Program,
// its rules, one block of body atoms and one of terms — four allocations
// whatever the program's size — and a rule copy is its two blocks.
func TestCloneAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 8, 64} {
		p := NewProgram()
		for len(p.Rules) < n {
			p.Rules = append(p.Rules, genRule(rng))
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = p.Clone() }); allocs > 4 {
			t.Errorf("Clone of a %d-rule program allocates %.0f times, want at most 4", n, allocs)
		}
		r := p.Rules[n-1]
		if allocs := testing.AllocsPerRun(100, func() { _ = r.Clone() }); allocs > 2 {
			t.Errorf("Rule.Clone allocates %.0f times, want at most 2", allocs)
		}
	}
}
