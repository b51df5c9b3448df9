package db

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
)

// The layout tests pin the store's per-fact representation (relation.go): a
// hash slot is one word whose tag is the high half of the key's hash, and the
// round stamps of a segment are runs of equal stamps.

// tagTwins returns the first two keys gen(i), gen(j) with i < j whose
// hashValues share the high 32 bits — a birthday search, so about 80 k keys.
func tagTwins(t *testing.T, gen func(i int64) []ast.Const) ([]ast.Const, []ast.Const) {
	t.Helper()
	seen := make(map[uint32]int64)
	for i := int64(0); i < 1<<22; i++ {
		tag := uint32(hashValues(gen(i)) >> 32)
		if j, ok := seen[tag]; ok {
			return gen(j), gen(i)
		}
		seen[tag] = i
	}
	t.Fatal("no tag collision among 4 M keys")
	return nil, nil
}

// checkTagged checks every read path of d's relation "e" against a scan of it:
// LookupID and Has find each live tuple at its scan id, the absent tuples
// miss, and Seek and MatchIDs on column 0 return, for each key, the scan's ids
// carrying it, in order.
func checkTagged(t *testing.T, stage string, d *Database, absent [][]ast.Const, keys []ast.Const) {
	t.Helper()
	rel := d.Relation("e")
	for id := 0; id < rel.Len(); id++ {
		if !rel.Alive(id) {
			continue
		}
		tu := rel.Tuple(id)
		if got, ok := rel.LookupID(tu); !ok || int(got) != id {
			t.Fatalf("%s: LookupID(%v) = %d, %v; the scan has it at %d", stage, tu, got, ok, id)
		}
		if !d.HasTuple("e", tu) {
			t.Fatalf("%s: Has(%v) = false", stage, tu)
		}
	}
	for _, tu := range absent {
		if id, ok := rel.LookupID(tu); ok || d.HasTuple("e", tu) {
			t.Fatalf("%s: absent %v found at %d", stage, tu, id)
		}
	}
	p := rel.Prober([]int{0}, math.MaxInt32)
	for _, k := range keys {
		var want, seek []int32
		for id := 0; id < rel.Len(); id++ {
			if rel.Alive(id) && rel.Tuple(id)[0] == k {
				want = append(want, int32(id))
			}
		}
		it := p.Seek([]ast.Const{k})
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			seek = append(seek, id)
		}
		if got := rel.MatchIDs([]int{0}, []ast.Const{k}); !slices.Equal(got, want) || !slices.Equal(seek, want) {
			t.Fatalf("%s: key %d: MatchIDs %v, Seek %v; the scan has %v", stage, k, got, seek, want)
		}
	}
}

// TestDedupTagCollision inserts two distinct tuples whose hashes share their
// tag — so they share a home slot and only the arena tells them apart — and
// two tuples whose column-0 keys do the same for a column index, then checks
// every read path through a dedup growth, a Remove + Freeze flatten, a
// successor tier and Reset.
func TestDedupTagCollision(t *testing.T) {
	ta, tb := tagTwins(t, func(i int64) []ast.Const { return []ast.Const{ast.Const(i), ast.Const(7)} })
	k := func(i int64) []ast.Const { return []ast.Const{ast.Const(1<<20 + i)} }
	ka, kb := tagTwins(t, k)
	if hashValues(ta) == hashValues(tb) || hashValues(ka) == hashValues(kb) {
		t.Fatal("twins share the whole hash: the search found a bug, not a tag collision")
	}
	keys := []ast.Const{ka[0], kb[0], ta[0], tb[0]}
	pair := func(a, b ast.Const) []ast.Const { return []ast.Const{a, b} }

	d := New()
	d.AddTuple("e", ta)
	d.AddTuple("e", pair(ka[0], 1))
	d.EnsureIndex("e", []int{0})
	checkTagged(t, "one of each pair", d, [][]ast.Const{tb, pair(kb[0], 1)}, keys)
	d.AddTuple("e", tb)
	d.AddTuple("e", pair(kb[0], 2))
	d.AddTuple("e", pair(ka[0], 3))
	slots := len(d.Relation("e").seg.dedup)
	for i := 0; i < 300; i++ {
		d.AddTuple("e", pair(ast.Const(2<<20+i), ast.Const(i)))
	}
	if len(d.Relation("e").seg.dedup) <= slots {
		t.Fatal("the filler did not grow the dedup table")
	}
	checkTagged(t, "after growDedup", d, nil, keys)

	// Removing the first twin of each pair and more than 1/16 of the rest
	// makes Freeze flatten: both tables are refilled from their words.
	d.RemoveTuple("e", ta)
	d.RemoveTuple("e", pair(ka[0], 1))
	for i := 0; i < 40; i++ {
		d.RemoveTuple("e", pair(ast.Const(2<<20+i), ast.Const(i)))
	}
	snap := d.Freeze()
	if rel := snap.DB().Relation("e"); rel.Dead() != 0 || rel.base != nil {
		t.Fatalf("Freeze did not flatten: dead %d", rel.Dead())
	}
	checkTagged(t, "after flatten", snap.DB(), [][]ast.Const{ta, pair(ka[0], 1)}, keys)

	// The successor's tail holds the removed twins again, over a base holding
	// the other twin of each pair; then the base's twins go too.
	w := snap.Thaw()
	w.AddTuple("e", ta)
	w.AddTuple("e", pair(ka[0], 1))
	if w.Relation("e").base == nil {
		t.Fatal("the write copied the relation instead of starting a tail")
	}
	checkTagged(t, "successor tier", w, nil, keys)
	w.RemoveTuple("e", tb)
	w.RemoveTuple("e", pair(kb[0], 2))
	checkTagged(t, "successor tier, base twins removed", w.Freeze().DB(), [][]ast.Const{tb, pair(kb[0], 2)}, keys)

	// Reset keeps a small relation's tables: the twins come back in the
	// other order, in a table that held them before.
	s := New()
	s.AddTuple("e", ta)
	s.AddTuple("e", tb)
	s.EnsureIndex("e", []int{0})
	s.Reset()
	checkTagged(t, "after Reset", s, [][]ast.Const{ta, tb}, keys)
	s.AddTuple("e", tb)
	s.AddTuple("e", pair(kb[0], 1))
	s.AddTuple("e", pair(ka[0], 2))
	s.AddTuple("e", ta)
	if id, _ := s.Relation("e").LookupID(ta); id != 3 {
		t.Fatalf("after Reset: %v at id %d, want 3", ta, id)
	}
	checkTagged(t, "after Reset", s, nil, keys)
}

// checkStamps compares RoundOf on every id and LenAt on every round around
// the stamps with stamps, the per-id oracle (dead ids included).
func checkStamps(t *testing.T, stage string, rel *Relation, stamps []int32) {
	t.Helper()
	if rel.Len() != len(stamps) {
		t.Fatalf("%s: Len = %d, oracle has %d ids", stage, rel.Len(), len(stamps))
	}
	for id, want := range stamps {
		if got := rel.RoundOf(id); got != want {
			t.Fatalf("%s: RoundOf(%d) = %d, oracle has %d", stage, id, got, want)
		}
	}
	hi := int32(0)
	if len(stamps) > 0 {
		hi = stamps[len(stamps)-1]
	}
	for r := int32(-1); r <= hi+1; r++ {
		want := 0
		for want < len(stamps) && stamps[want] <= r {
			want++
		}
		if got := rel.LenAt(r); got != want {
			t.Fatalf("%s: LenAt(%d) = %d, oracle has %d", stage, r, got, want)
		}
	}
}

// TestRoundRunsAgainstStamps drives relations through random non-decreasing
// stamp sequences — an empty segment, a one-run EDB, two tiers, a flatten
// over dead ids — and checks the stamp runs against a per-tuple []int32.
func TestRoundRunsAgainstStamps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New()
		var stamps []int32
		var tuples [][]ast.Const
		next := 0
		add := func(n int) {
			for i := 0; i < n; i++ {
				if rng.Intn(4) == 0 {
					d.BeginRound()
				}
				tu := []ast.Const{ast.Const(next), ast.Const(seed)}
				next++
				if !d.AddTuple("e", tu) {
					t.Fatalf("seed %d: fresh tuple %v reported duplicate", seed, tu)
				}
				stamps, tuples = append(stamps, d.Round()), append(tuples, tu)
			}
		}

		// An EDB loaded in one batch is one run.
		for i := 0; i < 500; i++ {
			tu := []ast.Const{ast.Const(next), ast.Const(seed)}
			next++
			d.AddTuple("e", tu)
			stamps, tuples = append(stamps, 0), append(tuples, tu)
		}
		if n := len(d.Relation("e").seg.runs); n != 1 {
			t.Fatalf("seed %d: a one-batch EDB has %d runs", seed, n)
		}
		checkStamps(t, "one-run EDB", d.Relation("e"), stamps)
		add(200 + rng.Intn(200))
		checkStamps(t, "flat", d.Relation("e"), stamps)

		// A removal stages a successor with an empty tail over the base.
		d = d.Freeze().Thaw()
		d.RemoveTuple("e", tuples[rng.Intn(len(tuples))])
		if rel := d.Relation("e"); rel.base == nil || rel.seg.n != 0 {
			t.Fatalf("seed %d: expected an empty tail over a base", seed)
		}
		checkStamps(t, "empty tail", d.Relation("e"), stamps)
		// The tail's first stamp may equal the base's last one or pass it.
		if rng.Intn(2) == 0 {
			d.BeginRound()
		}
		add(5 + rng.Intn(30))
		if d.Relation("e").base == nil {
			t.Fatalf("seed %d: the tail was flattened away", seed)
		}
		checkStamps(t, "two tiers", d.Relation("e"), stamps)

		// Removing whole stretches, runs included, then compacting keeps the
		// live ids' stamps in order and merges runs that meet.
		for i := range tuples {
			if rng.Intn(3) == 0 || (i > 100 && i < 200) {
				d.RemoveTuple("e", tuples[i])
			}
		}
		rel := d.Relation("e")
		var live []int32
		for id := range stamps {
			if rel.Alive(id) {
				live = append(live, stamps[id])
			}
		}
		d.Compact()
		if rel = d.Relation("e"); rel.base != nil || rel.Dead() != 0 {
			t.Fatalf("seed %d: Compact left base %v, dead %d", seed, rel.base != nil, rel.Dead())
		}
		checkStamps(t, "flatten with dead ids", rel, live)
		for k := 1; k < len(rel.seg.runs); k++ {
			if rel.seg.runs[k].round == rel.seg.runs[k-1].round {
				t.Fatalf("seed %d: runs %d and %d share round %d", seed, k-1, k, rel.seg.runs[k].round)
			}
		}

		// Reset leaves an empty segment.
		d.Reset()
		d.AddTuple("f", []ast.Const{1})
		d.RemoveTuple("f", []ast.Const{1})
		d.Compact()
		checkStamps(t, "empty segment", d.Relation("f"), nil)
	}
}

// TestFrozenRelationFootprint pins the per-fact bytes of a frozen relation
// loaded in one batch: every slice the relation and its segment hold, at
// capacity. A dedup slot is one 8-byte word and the stamps are one run, so a
// 100k-tuple binary relation costs its 16 B of constants (17.5 B at the
// arena's capacity) plus 21 B of dedup table (262,144 slots under a ¾ load
// bound) a fact, where two slot arrays and a stamp per tuple cost 53.4 B.
func TestFrozenRelationFootprint(t *testing.T) {
	const n = 100_000
	d := New()
	for i := 0; i < n; i++ {
		d.AddTuple("e", []ast.Const{ast.Const(i % 1000), ast.Const(i)})
	}
	rel := d.Freeze().DB().Relation("e")
	if rel.base != nil || rel.counts.on() || rel.seg.indexes.Load() != nil {
		t.Fatal("the relation is not one flat segment without counts or indexes")
	}
	if len(rel.seg.runs) != 1 {
		t.Fatalf("%d stamp runs, want 1", len(rel.seg.runs))
	}
	if slot := reflect.TypeOf(rel.seg.dedup).Elem().Size(); slot != 8 {
		t.Fatalf("a dedup slot is %d B, want 8", slot)
	}
	bytes := 0
	for _, v := range []reflect.Value{reflect.ValueOf(rel).Elem(), reflect.ValueOf(&rel.seg).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				bytes += f.Cap() * int(f.Type().Elem().Size())
			}
		}
	}
	// Measured: 1,753,088 B of arena (append's growth left room for 219,136
	// constants) + 2,097,152 B of dedup table + one 8 B run.
	const measured = 1_753_088 + 2_097_152 + 8
	if bytes > measured*105/100 {
		t.Fatalf("a frozen %d-tuple relation holds %d B (%.1f B a fact), bound %d B", n, bytes, float64(bytes)/n, measured*105/100)
	}
	t.Logf("%d B, %.1f B a fact", bytes, float64(bytes)/n)
}
