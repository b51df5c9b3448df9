package db

import (
	"testing"

	"repro/internal/ast"
)

func gat(pred string, args ...int) ast.GroundAtom {
	g := ast.GroundAtom{Pred: pred}
	for _, a := range args {
		g.Args = append(g.Args, ast.Int(int64(a)))
	}
	return g
}

// TestDirtyTracksWrites: the dirty list holds exactly the predicates
// written since the last freeze, once each, across creation, copy-on-write
// adds, removes and count bumps.
func TestDirtyTracksWrites(t *testing.T) {
	d := New()
	d.Add(gat("A", 1))
	d.Add(gat("B", 1, 2))
	d.Add(gat("A", 2)) // second write to a private relation: no new entry
	if d.DirtyRelations() != 2 || d.RelationCount() != 2 {
		t.Fatalf("fresh db: dirty=%d rels=%d, want 2/2", d.DirtyRelations(), d.RelationCount())
	}

	snap := d.Freeze()
	if d.DirtyRelations() != 0 {
		t.Fatalf("frozen db still dirty: %d", d.DirtyRelations())
	}

	w := snap.Thaw()
	if w.DirtyRelations() != 0 {
		t.Fatalf("thawed copy born dirty: %d", w.DirtyRelations())
	}
	w.Add(gat("A", 3))
	if w.DirtyRelations() != 1 {
		t.Fatalf("one touched relation, dirty=%d", w.DirtyRelations())
	}
	w.Add(gat("A", 4))
	if w.DirtyRelations() != 1 {
		t.Fatalf("repeat write re-listed the relation: dirty=%d", w.DirtyRelations())
	}

	// Remove and BumpCount must also mark their copy-on-write transitions.
	w2 := snap.Thaw()
	w2.Remove(gat("B", 1, 2))
	if w2.DirtyRelations() != 1 {
		t.Fatalf("CoW remove: dirty=%d, want 1", w2.DirtyRelations())
	}
	w3 := snap.Thaw()
	w3.BumpCount("A", []ast.Const{ast.Int(1)}, 1)
	if w3.DirtyRelations() != 1 {
		t.Fatalf("CoW bump: dirty=%d, want 1", w3.DirtyRelations())
	}
}

// TestFreezeSkipsUntouchedRelations: re-freezing a thawed successor must
// leave untouched relations on the exact storage the previous snapshot
// shares — only written predicates get new relation objects.
func TestFreezeSkipsUntouchedRelations(t *testing.T) {
	d := New()
	for i := 0; i < 6; i++ {
		d.Add(gat(string(rune('A'+i)), i, i+1))
	}
	s1 := d.Freeze()

	w := s1.Thaw()
	w.Add(gat("A", 100, 101))
	if w.DirtyRelations() != 1 {
		t.Fatalf("dirty=%d, want 1", w.DirtyRelations())
	}
	s2 := w.Freeze()

	for i := 1; i < 6; i++ {
		p := string(rune('A' + i))
		if s1.DB().Relation(p) != s2.DB().Relation(p) {
			t.Fatalf("untouched relation %s was re-frozen into a new object", p)
		}
	}
	if s1.DB().Relation("A") == s2.DB().Relation("A") {
		t.Fatal("written relation A still shares the old snapshot's storage")
	}
	if !s2.DB().Has(gat("A", 100, 101)) || !s2.DB().Has(gat("A", 0, 1)) {
		t.Fatal("successor snapshot lost facts")
	}
}

// TestCloneCarriesDirtySet: cloning an unfrozen database deep-copies its
// private relations, so the clone's dirty set must match the source's.
func TestCloneCarriesDirtySet(t *testing.T) {
	d := New()
	d.Add(gat("A", 1))
	s := d.Freeze()
	w := s.Thaw()
	w.Add(gat("B", 2))
	c := w.Clone()
	if c.DirtyRelations() != w.DirtyRelations() {
		t.Fatalf("clone dirty=%d, source dirty=%d", c.DirtyRelations(), w.DirtyRelations())
	}
	// The clone must be freezable on its own dirty set without losing data.
	cs := c.Freeze()
	if !cs.DB().Has(gat("B", 2)) || !cs.DB().Has(gat("A", 1)) {
		t.Fatal("clone snapshot lost facts")
	}
}

// TestCompactWalksDirtyOnly: Compact flattens the relations written since the
// last freeze, which is where a staged batch's removals are.
func TestCompactWalksDirtyOnly(t *testing.T) {
	d := New()
	d.Add(gat("A", 1))
	d.Add(gat("A", 2))
	d.Add(gat("B", 7))
	s := d.Freeze()
	w := s.Thaw()
	w.Remove(gat("A", 1))
	w.Compact()
	if w.Len() != 2 {
		t.Fatalf("len=%d after compact, want 2", w.Len())
	}
	if got := w.Relation("A").Len(); got != 1 {
		t.Fatalf("A arena holds %d slots after compact, want 1", got)
	}
	if w.Has(gat("A", 1)) || !w.Has(gat("A", 2)) || !w.Has(gat("B", 7)) {
		t.Fatal("compact changed the fact set")
	}
}
