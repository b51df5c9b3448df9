package db

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
)

func tup(vals ...int) []ast.Const {
	t := make([]ast.Const, len(vals))
	for i, v := range vals {
		t[i] = ast.Const(v)
	}
	return t
}

func TestRemoveTupleBasic(t *testing.T) {
	d := New()
	d.AddTuple("e", tup(1, 2))
	d.AddTuple("e", tup(2, 3))
	if !d.RemoveTuple("e", tup(1, 2)) {
		t.Fatal("remove of present tuple returned false")
	}
	if d.RemoveTuple("e", tup(1, 2)) {
		t.Fatal("second remove returned true")
	}
	if d.HasTuple("e", tup(1, 2)) {
		t.Fatal("removed tuple still visible via Has")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	if got := len(d.Facts()); got != 1 {
		t.Fatalf("Facts len = %d, want 1", got)
	}
	// Re-insert before compaction must resurrect as a fresh tuple.
	if !d.AddTuple("e", tup(1, 2)) {
		t.Fatal("re-insert after remove returned false")
	}
	if !d.HasTuple("e", tup(1, 2)) {
		t.Fatal("re-inserted tuple not visible")
	}
	d.Compact()
	if d.Len() != 2 || !d.HasTuple("e", tup(1, 2)) || !d.HasTuple("e", tup(2, 3)) {
		t.Fatalf("post-compact state wrong: %v", d.Facts())
	}
	if rel := d.Relation("e"); rel.Dead() != 0 || rel.Len() != 2 {
		t.Fatalf("compact left dead=%d len=%d", rel.Dead(), rel.Len())
	}
}

func TestRemoveRandomizedVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := New()
	ref := make(map[[2]ast.Const]bool)
	for op := 0; op < 5000; op++ {
		a, b := ast.Const(rng.Intn(25)), ast.Const(rng.Intn(25))
		key := [2]ast.Const{a, b}
		if rng.Intn(3) == 0 {
			got := d.RemoveTuple("e", tup(int(a), int(b)))
			if got != ref[key] {
				t.Fatalf("op %d: remove(%v) = %v, want %v", op, key, got, ref[key])
			}
			delete(ref, key)
		} else {
			got := d.AddTuple("e", tup(int(a), int(b)))
			if got != !ref[key] {
				t.Fatalf("op %d: add(%v) = %v, want %v", op, key, got, !ref[key])
			}
			ref[key] = true
		}
		if rng.Intn(50) == 0 {
			d.Compact()
		}
	}
	d.Compact()
	if d.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(ref))
	}
	for key := range ref {
		if !d.HasTuple("e", []ast.Const{key[0], key[1]}) {
			t.Fatalf("missing %v", key)
		}
	}
	// Round stamps stay non-decreasing through compaction.
	rel := d.Relation("e")
	for i := 1; i < rel.Len(); i++ {
		if rel.RoundOf(i) < rel.RoundOf(i-1) {
			t.Fatalf("round stamps decreasing at %d", i)
		}
	}
}

func TestRemoveCopyOnWriteFromSnapshot(t *testing.T) {
	d := New()
	d.AddTuple("e", tup(1, 2))
	d.AddTuple("e", tup(2, 3))
	snap := d.Freeze()
	w := snap.Thaw()
	if !w.RemoveTuple("e", tup(1, 2)) {
		t.Fatal("remove via thawed copy failed")
	}
	w.Compact()
	if !snap.DB().HasTuple("e", tup(1, 2)) {
		t.Fatal("remove leaked into the frozen snapshot")
	}
	if w.HasTuple("e", tup(1, 2)) || w.Len() != 1 {
		t.Fatal("thawed copy kept the removed tuple")
	}
	// Removing an absent tuple from a shared relation must not copy it.
	w2 := snap.Thaw()
	if w2.RemoveTuple("e", tup(9, 9)) {
		t.Fatal("remove of absent tuple returned true")
	}
	if w2.Relation("e") != snap.DB().Relation("e") {
		t.Fatal("no-op remove copied the shared relation")
	}
}

func TestFreezeCompacts(t *testing.T) {
	d := New()
	d.AddTuple("e", tup(1, 2))
	d.AddTuple("e", tup(2, 3))
	d.RemoveTuple("e", tup(1, 2))
	snap := d.Freeze()
	rel := snap.DB().Relation("e")
	if rel.Dead() != 0 || rel.Len() != 1 {
		t.Fatalf("Freeze left tombstones: dead=%d len=%d", rel.Dead(), rel.Len())
	}
}

// TestCompactRepairsIndexes pins compaction's effect on the tables: column
// indexes and the dedup table built before a removal batch are exact after
// Compact (ids renumbered densely, dead tuples gone, emptied keys absent) on
// the same *Relation, and keep extending correctly afterwards.
func TestCompactRepairsIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := New()
	ref := make(map[[2]ast.Const]bool)
	check := func(op int) {
		rel := d.Relation("e")
		if rel == nil {
			return
		}
		for a := 0; a < 8; a++ {
			var want []ast.Const
			for key := range ref {
				if key[0] == ast.Const(a) {
					want = append(want, key[1])
				}
			}
			ids := rel.MatchIDs([]int{0}, tup(a))
			if len(ids) != len(want) {
				t.Fatalf("op %d: probe a=%d returned %d ids, want %d", op, a, len(ids), len(want))
			}
			seen := make(map[ast.Const]bool)
			for _, id := range ids {
				tu := rel.Tuple(int(id))
				if tu[0] != ast.Const(a) {
					t.Fatalf("op %d: probe a=%d surfaced tuple %v", op, a, tu)
				}
				if seen[tu[1]] {
					t.Fatalf("op %d: probe a=%d returned duplicate %v", op, a, tu)
				}
				seen[tu[1]] = true
				if !ref[[2]ast.Const{tu[0], tu[1]}] {
					t.Fatalf("op %d: probe a=%d surfaced dead tuple %v", op, a, tu)
				}
			}
		}
	}
	for op := 0; op < 4000; op++ {
		a, b := ast.Const(rng.Intn(8)), ast.Const(rng.Intn(60))
		key := [2]ast.Const{a, b}
		if rng.Intn(3) == 0 {
			d.RemoveTuple("e", tup(int(a), int(b)))
			delete(ref, key)
		} else {
			d.AddTuple("e", tup(int(a), int(b)))
			ref[key] = true
		}
		if op == 100 {
			// Build the index early so every later compaction rebuilds it.
			d.Relation("e").EnsureIndex([]int{0})
		}
		if rng.Intn(40) == 0 {
			d.Compact()
			check(op)
		}
	}
	d.Compact()
	check(-1)
	// Kill every tuple of one key: probes for it come back empty, probes for
	// the other keys keep working, and re-adding the key finds it again.
	rel := d.Relation("e")
	for key := range ref {
		if key[0] == 3 {
			d.RemoveTuple("e", tup(int(key[0]), int(key[1])))
			delete(ref, key)
		}
	}
	d.Compact()
	if ids := rel.MatchIDs([]int{0}, tup(3)); len(ids) != 0 {
		t.Fatalf("emptied key still probeable: %d ids", len(ids))
	}
	check(-2)
	d.AddTuple("e", tup(3, 59))
	ref[[2]ast.Const{3, 59}] = true
	check(-3)
}
