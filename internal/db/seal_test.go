package db

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
)

// twoTier builds a relation of pred in a writable database: a frozen base of
// nBase random tuples with a private tail of nTail more over it, some ids of
// each tier removed (a few of them asserted again), stamps spread over a few
// rounds. draw makes a tuple's constants. It returns the database and every
// tuple ever inserted.
func twoTier(t *testing.T, rng *rand.Rand, arity, nBase, nTail int, draw func() ast.Const) (*Database, [][]ast.Const) {
	t.Helper()
	d := New()
	var tuples [][]ast.Const
	add := func(n int) {
		for len(tuples) < n {
			if rng.Intn(8) == 0 {
				d.BeginRound()
			}
			tu := make([]ast.Const, arity)
			for i := range tu {
				tu[i] = draw()
			}
			if d.AddTuple("e", tu) {
				tuples = append(tuples, tu)
			}
		}
	}
	add(nBase)
	d = d.Freeze().Thaw()
	d.BeginRound()
	add(nBase + nTail)
	var removed [][]ast.Const
	for _, tu := range tuples {
		if rng.Intn(5) == 0 && d.RemoveTuple("e", tu) {
			removed = append(removed, tu)
		}
	}
	// A value removed and asserted again lives on at a fresh tail id.
	for _, tu := range removed[:len(removed)/4] {
		d.AddTuple("e", tu)
	}
	if rel := d.Relation("e"); rel.base == nil || rel.Dead() == 0 {
		t.Fatalf("want a two-tier relation with dead ids: base %v, dead %d", rel.base != nil, rel.Dead())
	}
	return d, tuples
}

// TestSortedIDsCanonical holds the radix sort to a comparison sort under
// slices.Compare, over arities 1–4 and constants of every sign and range —
// plain integers up to the ±2^40 limits, zero, the generated ranges — on flat
// relations and on two-tier ones with dead ids in both tiers.
func TestSortedIDsCanonical(t *testing.T) {
	pool := []ast.Const{
		0, 1, -1, 2, -2, 255, 256, -256, 1 << 16, -(1 << 16), 1<<40 - 1, -(1<<40 - 1), 1 << 40, -(1 << 40),
		ast.FrozenConst(0), ast.FrozenConst(3), ast.NullConst(0), ast.NullConst(7), math.MaxInt64, math.MinInt64,
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func() ast.Const {
			if rng.Intn(2) == 0 {
				return pool[rng.Intn(len(pool))]
			}
			return ast.Const(rng.Int63n(2000) - 1000)
		}
		for arity := 1; arity <= 4; arity++ {
			flat := New()
			for i := 0; i < 300; i++ {
				tu := make([]ast.Const, arity)
				for j := range tu {
					tu[j] = draw()
				}
				flat.AddTuple("e", tu)
			}
			tiered, _ := twoTier(t, rng, arity, 400, 120, draw)
			for name, rel := range map[string]*Relation{"flat": flat.Relation("e"), "two-tier": tiered.Relation("e")} {
				var want []int32
				for id := 0; id < rel.Len(); id++ {
					if rel.Alive(id) {
						want = append(want, int32(id))
					}
				}
				slices.SortFunc(want, func(a, b int32) int { return slices.Compare(rel.Tuple(int(a)), rel.Tuple(int(b))) })
				got := liveIDs(rel)
				if rel.SortIDs(got); !slices.Equal(got, want) {
					t.Fatalf("seed %d, arity %d, %s: SortIDs differs from the comparison sort", seed, arity, name)
				}
			}
		}
	}
}

// TestSortedIDsPresorted: ids already in canonical order stay as they are,
// without the radix passes (no key buffer is allocated); any other order is
// sorted. The dead ids of the last case sit out of order among live ones.
func TestSortedIDsPresorted(t *testing.T) {
	ints := func(vs ...int64) [][]ast.Const {
		var ts [][]ast.Const
		for _, v := range vs {
			ts = append(ts, []ast.Const{ast.Const(v), ast.Const(-v)})
		}
		return ts
	}
	for _, c := range []struct {
		name   string
		tuples [][]ast.Const
		dead   []int
		sorted bool
	}{
		{"sorted", ints(-5, -1, 0, 2, 3, 9, 40), nil, true},
		{"reversed", ints(40, 9, 3, 2, 0, -1, -5), nil, false},
		{"last-inverted", ints(-5, -1, 0, 2, 3, 40, 9), nil, false},
		{"single", ints(7), nil, true},
		{"dead-ids", ints(1, 50, 2, -9, 3, 4), []int{1, 3}, true},
		{"dead-ids-unsorted", ints(1, 50, 4, -9, 3, 2), []int{1, 3}, false},
	} {
		d := New()
		for _, tu := range c.tuples {
			d.AddTuple("e", tu)
		}
		rel := d.Relation("e")
		for _, id := range c.dead {
			d.RemoveTuple("e", rel.Tuple(id))
		}
		var want []int32
		for id := 0; id < rel.Len(); id++ {
			if rel.Alive(id) {
				want = append(want, int32(id))
			}
		}
		slices.SortFunc(want, func(a, b int32) int { return slices.Compare(rel.Tuple(int(a)), rel.Tuple(int(b))) })
		live := liveIDs(rel)
		got := slices.Clone(live)
		if rel.SortIDs(got); !slices.Equal(got, want) {
			t.Fatalf("%s: SortIDs = %v, want %v", c.name, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { copy(got, live); rel.SortIDs(got) }); (allocs == 0) != c.sorted {
			t.Errorf("%s: %.0f allocations, want none exactly when the ids are in order (%v)", c.name, allocs, c.sorted)
		}
	}
}

// TestFlattenMatchesRebuild checks a flatten of random two-tier relations
// with dead ids and column indexes against the relation its live tuples make
// when inserted afresh in id order with their stamps: the order Facts reads,
// every stamp and round prefix, LookupID of every tuple ever inserted, every
// index's Seek results, and the tuples the flatten reports copying.
func TestFlattenMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 2 + rng.Intn(2)
		draw := func() ast.Const { return ast.Const(rng.Int63n(40) - 20) }
		d, tuples := twoTier(t, rng, arity, 300+rng.Intn(300), 20+rng.Intn(200), draw)
		colSets := [][]int{{0}, {arity - 1}, {0, 1}}
		for _, cols := range colSets[:1+rng.Intn(3)] {
			d.EnsureIndex("e", cols)
		}
		rel := d.Relation("e")
		ref := newRelation(arity, 0)
		for id := 0; id < rel.Len(); id++ {
			if rel.Alive(id) {
				ref.insert(rel.Tuple(id), rel.RoundOf(id))
			}
		}
		var indexed [][]int
		for _, s := range []*segment{rel.base, &rel.seg} {
			if set := s.indexes.Load(); set != nil {
				for _, ix := range set.idxs {
					if !slices.ContainsFunc(indexed, func(c []int) bool { return slices.Equal(c, ix.cols) }) {
						indexed = append(indexed, ix.cols)
						ref.EnsureIndex(ix.cols)
					}
				}
			}
		}
		before := d.TuplesCopied()
		d.Compact()
		if rel = d.Relation("e"); rel.base != nil || rel.Dead() != 0 || rel.Len() != ref.Len() {
			t.Fatalf("seed %d: flatten left base %v, %d dead, %d ids for %d tuples", seed, rel.base != nil, rel.Dead(), rel.Len(), ref.Len())
		}
		if got := d.TuplesCopied() - before; got != ref.Len() {
			t.Fatalf("seed %d: flatten copied %d tuples, %d are live", seed, got, ref.Len())
		}
		facts := d.Facts()
		for id := 0; id < ref.Len(); id++ {
			if !slices.Equal(facts[id].Args, ref.Tuple(id)) || !slices.Equal(rel.Tuple(id), ref.Tuple(id)) {
				t.Fatalf("seed %d: id %d holds %v, rebuilt %v", seed, id, rel.Tuple(id), ref.Tuple(id))
			}
			if got, want := rel.RoundOf(id), ref.RoundOf(id); got != want {
				t.Fatalf("seed %d: id %d stamped %d, rebuilt %d", seed, id, got, want)
			}
		}
		for round := int32(0); round <= d.Round()+1; round++ {
			if got, want := rel.LenAt(round), ref.LenAt(round); got != want {
				t.Fatalf("seed %d: LenAt(%d) = %d, rebuilt %d", seed, round, got, want)
			}
		}
		for _, tu := range tuples {
			got, gok := rel.LookupID(tu)
			want, wok := ref.LookupID(tu)
			if got != want || gok != wok {
				t.Fatalf("seed %d: LookupID(%v) = %d %v, rebuilt %d %v", seed, tu, got, gok, want, wok)
			}
		}
		if got := rel.seg.indexes.Load(); got == nil || len(got.idxs) != len(indexed) {
			t.Fatalf("seed %d: flatten kept %v of %d indexes", seed, got, len(indexed))
		}
		for _, cols := range indexed {
			seek := func(r *Relation, key []ast.Const) []int32 {
				var ids []int32
				it := r.Prober(cols, math.MaxInt32).Seek(key)
				for id, ok := it.Next(); ok; id, ok = it.Next() {
					ids = append(ids, id)
				}
				return ids
			}
			for _, tu := range tuples {
				key := make([]ast.Const, len(cols))
				for j, c := range cols {
					key[j] = tu[c]
				}
				if got, want := seek(rel, key), seek(ref, key); !slices.Equal(got, want) {
					t.Fatalf("seed %d: Seek(%v, %v) = %v, rebuilt %v", seed, cols, key, got, want)
				}
			}
		}
	}
}

// liveIDs returns rel's live ids in id order.
func liveIDs(rel *Relation) []int32 {
	var ids []int32
	for id := 0; id < rel.Len(); id++ {
		if rel.Alive(id) {
			ids = append(ids, int32(id))
		}
	}
	return ids
}
