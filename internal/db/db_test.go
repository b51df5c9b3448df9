package db

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
)

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

// example2EDB is the EDB of Example 2: {A(1,2), A(1,4), A(4,1)}.
func example2EDB() *Database {
	return FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)})
}

func TestAddHasLen(t *testing.T) {
	d := New()
	if !d.Add(ga("A", 1, 2)) {
		t.Fatal("first Add returned false")
	}
	if d.Add(ga("A", 1, 2)) {
		t.Fatal("duplicate Add returned true")
	}
	if !d.Has(ga("A", 1, 2)) || d.Has(ga("A", 2, 1)) {
		t.Fatal("Has wrong")
	}
	if d.Has(ga("B", 1, 2)) {
		t.Fatal("Has on absent predicate")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestFactsSorted(t *testing.T) {
	d := New()
	d.Add(ga("B", 7))
	d.Add(ga("A", 1, 2))
	d.Add(ga("A", 3, 4))
	got := d.Facts()
	want := []ast.GroundAtom{ga("A", 1, 2), ga("A", 3, 4), ga("B", 7)}
	if len(got) != len(want) {
		t.Fatalf("Facts = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Facts[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(d.Preds(), []string{"A", "B"}) {
		t.Fatalf("Preds = %v", d.Preds())
	}
}

func TestCloneIndependence(t *testing.T) {
	d := example2EDB()
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Add(ga("A", 9, 9))
	if d.Has(ga("A", 9, 9)) {
		t.Fatal("clone shares storage")
	}
	if d.Equal(c) {
		t.Fatal("Equal after divergence")
	}
}

func TestContainsAndAddAll(t *testing.T) {
	d := example2EDB()
	e := FromFacts([]ast.GroundAtom{ga("A", 1, 2)})
	if !d.Contains(e) || e.Contains(d) {
		t.Fatal("Contains wrong")
	}
	added := e.AddAll(d)
	if added != 2 || !e.Equal(d) {
		t.Fatalf("AddAll added %d, equal=%v", added, e.Equal(d))
	}
}

func TestRounds(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 1)) // round 0
	r1 := d.BeginRound()
	if r1 != 1 {
		t.Fatalf("BeginRound = %d", r1)
	}
	d.Add(ga("A", 2, 2)) // round 1
	rel := d.Relation("A")
	if rel.RoundOf(0) != 0 || rel.RoundOf(1) != 1 {
		t.Fatalf("round stamps: %d %d", rel.RoundOf(0), rel.RoundOf(1))
	}
	// Clone preserves stamps.
	c := d.Clone()
	if c.Relation("A").RoundOf(1) != 1 || c.Round() != 1 {
		t.Fatal("clone lost round stamps")
	}
}

func TestConstsAndMaxGenerated(t *testing.T) {
	d := New()
	d.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{ast.Int(3), ast.FrozenConst(7)}})
	d.Add(ast.GroundAtom{Pred: "B", Args: []ast.Const{ast.NullConst(2)}})
	set := d.Consts()
	if len(set) != 3 {
		t.Fatalf("Consts = %v", set)
	}
	mf, mn := d.MaxGeneratedIndexes()
	if mf != 7 || mn != 2 {
		t.Fatalf("MaxGeneratedIndexes = %d, %d", mf, mn)
	}
	empty := New()
	mf, mn = empty.MaxGeneratedIndexes()
	if mf != -1 || mn != -1 {
		t.Fatalf("MaxGeneratedIndexes on empty = %d, %d", mf, mn)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	d.Add(ga("A", 1))
}

func TestFormat(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 2))
	d.Add(ga("G", 4))
	want := "A(1, 2).\nG(4).\n"
	if got := d.String(); got != want {
		t.Fatalf("String = %q", got)
	}
}

func TestRelationMatchIDs(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 2))
	d.Add(ga("A", 1, 3))
	d.Add(ga("A", 2, 3))
	rel := d.Relation("A")

	ids := rel.MatchIDs([]int{0}, []ast.Const{ast.Int(1)})
	if len(ids) != 2 {
		t.Fatalf("MatchIDs col0=1: %v", ids)
	}
	ids = rel.MatchIDs([]int{1}, []ast.Const{ast.Int(3)})
	if len(ids) != 2 {
		t.Fatalf("MatchIDs col1=3: %v", ids)
	}
	ids = rel.MatchIDs([]int{0, 1}, []ast.Const{ast.Int(2), ast.Int(3)})
	if len(ids) != 1 {
		t.Fatalf("MatchIDs both: %v", ids)
	}
	// Index extends incrementally as the relation grows.
	d.Add(ga("A", 1, 9))
	ids = rel.MatchIDs([]int{0}, []ast.Const{ast.Int(1)})
	if len(ids) != 3 {
		t.Fatalf("MatchIDs after growth: %v", ids)
	}
	// Empty column set means "scan".
	if got := rel.MatchIDs(nil, nil); got != nil {
		t.Fatalf("MatchIDs(nil) = %v", got)
	}
}

func TestLookupID(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 2))
	d.Add(ga("A", 3, 4))
	rel := d.Relation("A")
	if id, ok := rel.LookupID([]ast.Const{ast.Int(3), ast.Int(4)}); !ok || id != 1 {
		t.Fatalf("LookupID(3,4) = %d, %v", id, ok)
	}
	if _, ok := rel.LookupID([]ast.Const{ast.Int(4), ast.Int(3)}); ok {
		t.Fatal("LookupID found absent tuple")
	}
	if _, ok := rel.LookupID([]ast.Const{ast.Int(1)}); ok {
		t.Fatal("LookupID with wrong arity")
	}
}

func TestProbeIterInsertionOrderAndWindow(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 2)) // id 0, round 0
	d.Add(ga("A", 1, 3)) // id 1, round 0
	d.BeginRound()
	d.Add(ga("A", 1, 4)) // id 2, round 1
	rel := d.Relation("A")

	collect := func(maxRound int32) []int32 {
		it := rel.Prober([]int{0}, maxRound).Seek([]ast.Const{ast.Int(1)})
		var ids []int32
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			ids = append(ids, id)
		}
		return ids
	}
	// Full window: all three, oldest first.
	if got := collect(1); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Fatalf("probe, full window = %v", got)
	}
	// A probe whose window excludes the newest round must not force an
	// index extension over it: freeze at round 0 boundary, then insert.
	d2 := New()
	d2.Add(ga("B", 1, 2))
	d2.EnsureIndex("B", []int{0})
	d2.BeginRound()
	d2.Add(ga("B", 1, 9))
	rel2 := d2.Relation("B")
	it := rel2.Prober([]int{0}, 0).Seek([]ast.Const{ast.Int(1)})
	var ids []int32
	for id, ok := it.Next(); ok; id, ok = it.Next() {
		ids = append(ids, id)
	}
	// Only the frozen prefix is visible (the caller's window excludes the
	// current round anyway); a wider window extends and sees both.
	if !reflect.DeepEqual(ids, []int32{0}) {
		t.Fatalf("frozen probe = %v, want [0]", ids)
	}
	if got := rel2.MatchIDs([]int{0}, []ast.Const{ast.Int(1)}); len(got) != 2 {
		t.Fatalf("MatchIDs after growth = %v", got)
	}
}

func TestCloneCarriesIndexes(t *testing.T) {
	d := example2EDB()
	rel := d.Relation("A")
	// Build an index, then clone: the copy must answer probes over the
	// carried index and diverge independently.
	if got := rel.MatchIDs([]int{0}, []ast.Const{ast.Int(1)}); len(got) != 2 {
		t.Fatalf("MatchIDs = %v", got)
	}
	c := d.Clone()
	crel := c.Relation("A")
	if got := crel.MatchIDs([]int{0}, []ast.Const{ast.Int(1)}); len(got) != 2 {
		t.Fatalf("clone MatchIDs = %v", got)
	}
	c.Add(ga("A", 1, 7))
	if got := crel.MatchIDs([]int{0}, []ast.Const{ast.Int(1)}); len(got) != 3 {
		t.Fatalf("clone MatchIDs after insert = %v", got)
	}
	if got := rel.MatchIDs([]int{0}, []ast.Const{ast.Int(1)}); len(got) != 2 {
		t.Fatalf("original index mutated by clone insert: %v", got)
	}
}

// TestHashTablesAgainstScan cross-checks the open-addressing dedup table
// and column indexes against naive scans over many random tuples, driving
// table growth, collision chains, and multi-column keys.
func TestHashTablesAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := New()
	type key3 [3]int64
	inserted := make(map[key3]bool)
	var tuples []key3
	for i := 0; i < 5000; i++ {
		k := key3{int64(rng.Intn(40)), int64(rng.Intn(40)), int64(rng.Intn(40))}
		fresh := !inserted[k]
		got := d.Add(ga("R", k[0], k[1], k[2]))
		if got != fresh {
			t.Fatalf("Add(%v) = %v, want %v", k, got, fresh)
		}
		if fresh {
			inserted[k] = true
			tuples = append(tuples, k)
		}
	}
	rel := d.Relation("R")
	if rel.Len() != len(tuples) {
		t.Fatalf("Len = %d, want %d", rel.Len(), len(tuples))
	}
	// Dedup table finds every tuple at its insertion id.
	for id, k := range tuples {
		got, ok := rel.LookupID([]ast.Const{ast.Int(k[0]), ast.Int(k[1]), ast.Int(k[2])})
		if !ok || got != int32(id) {
			t.Fatalf("LookupID(%v) = %d, %v, want %d", k, got, ok, id)
		}
	}
	// Column indexes agree with a scan for random single- and two-column
	// probes.
	colSets := [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}}
	for trial := 0; trial < 200; trial++ {
		cols := colSets[rng.Intn(len(colSets))]
		key := make([]ast.Const, len(cols))
		for j := range key {
			key[j] = ast.Int(int64(rng.Intn(40)))
		}
		var want []int32
		for id, k := range tuples {
			match := true
			for j, c := range cols {
				if ast.Int(k[c]) != key[j] {
					match = false
					break
				}
			}
			if match {
				want = append(want, int32(id))
			}
		}
		got := rel.MatchIDs(cols, key)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MatchIDs(%v, %v) = %v, want %v", cols, key, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := New()
	d.Add(ga("A", 1, 2))
	d.Add(ga("A", 2, 3))
	d.Add(ga("B", 1))
	s := d.Summarize()
	if s.Facts != 3 || s.Predicates["A"] != 2 || s.Predicates["B"] != 1 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.Constants != 3 {
		t.Fatalf("Constants = %d", s.Constants)
	}
}

// TestResetReusesStorage: Reset empties a scratch database in place — small
// relations keep their arena and dedup table, so refilling one allocates
// nothing; a large relation is replaced; an emptied name may come back at
// another arity; round and size start over.
func TestResetReusesStorage(t *testing.T) {
	d := New()
	fill := func(n int64) {
		for i := int64(0); i < n; i++ {
			d.AddTuple("P", []ast.Const{ast.Const(i), ast.Const(i + 1)})
		}
	}
	fill(40)
	d.BeginRound()
	d.RemoveTuple("P", []ast.Const{5, 6})
	d.EnsureIndex("P", []int{0})
	d.Reset()
	if d.Len() != 0 || d.Round() != 0 || len(d.Facts()) != 0 || len(d.Preds()) != 0 || d.HasTuple("P", []ast.Const{1, 2}) {
		t.Fatalf("after Reset: len %d, round %d, facts %v", d.Len(), d.Round(), d.Facts())
	}
	if n := testing.AllocsPerRun(10, func() { d.Reset(); fill(40) }); n != 0 {
		t.Fatalf("refilling a reset relation allocated %v times", n)
	}
	if rel := d.Relation("P"); rel.Dead() != 0 || len(rel.MatchIDs([]int{0}, []ast.Const{7})) != 1 {
		t.Fatalf("dead %d, probe %v", rel.Dead(), rel.MatchIDs([]int{0}, []ast.Const{7}))
	}

	d.Reset()
	if !d.AddTuple("P", []ast.Const{1, 2, 3}) || !d.HasTuple("P", []ast.Const{1, 2, 3}) || d.HasTuple("P", []ast.Const{1, 2}) {
		t.Fatal("an emptied relation did not take the new arity")
	}
	d.Reset()
	fill(1000)
	big := d.Relation("P")
	d.Reset()
	if d.Relation("P") == big || d.Relation("P").Len() != 0 {
		t.Fatal("a large relation kept its tables through Reset")
	}
	d.Freeze() // every relation, replaced ones included, is still on the dirty list
}

// MatchIDs returns the ids of tuples whose value at each position cols[i]
// equals key[i]. cols must be sorted and contain no duplicates. With empty
// cols it returns nil and the caller should scan all tuples. It allocates
// the result slice; the join kernel uses Prober/LookupID instead.
func (r *Relation) MatchIDs(cols []int, key []ast.Const) []int32 {
	if len(cols) == 0 {
		return nil
	}
	it := r.Prober(cols, math.MaxInt32).Seek(key)
	var ids []int32
	for id, ok := it.Next(); ok; id, ok = it.Next() {
		ids = append(ids, id)
	}
	return ids
}

// TestReserve: a reservation makes no relation; the insert that creates the
// relation gives it an arena and dedup table of the reserved size, which
// that many inserts neither copy nor regrow; withdrawing the reservation
// gives back the room a relation ended far below, and a predicate that
// already has a relation is not resized upwards.
func TestReserve(t *testing.T) {
	d := New()
	d.Reserve("B", 1000)
	if d.RelationCount() != 0 || d.Relation("B") != nil {
		t.Fatal("a reservation created a relation")
	}
	d.AddTuple("B", []ast.Const{ast.Int(0), ast.Int(0)})
	r := d.Relation("B")
	data, dedup := &r.seg.data[:1][0], &r.seg.dedup[0]
	if cap(r.seg.data) < 2000 || len(r.seg.dedup) != dedupSize(1000) {
		t.Fatalf("created under a reservation of 1,000: arena room %d, dedup %d slots", cap(r.seg.data), len(r.seg.dedup))
	}
	for i := int64(1); i < 1000; i++ {
		d.AddTuple("B", []ast.Const{ast.Int(i), ast.Int(-i)})
	}
	if &r.seg.data[0] != data || &r.seg.dedup[0] != dedup {
		t.Fatal("1,000 inserts under a reservation of 1,000 moved the arena or the dedup table")
	}
	d.Reserve("B", 0)
	if &r.seg.data[0] != data {
		t.Fatal("withdrawing a reservation its relation filled copied the relation")
	}

	// A reservation far above what is inserted is given back.
	d.Reserve("C", 1000)
	d.Reserve("D", 1000)
	d.AddTuple("C", []ast.Const{ast.Int(1)})
	d.AddTuple("C", []ast.Const{ast.Int(2)})
	d.Reserve("C", 0)
	d.Reserve("D", 0)
	if d.reserved != nil {
		t.Fatalf("every reservation used or withdrawn, the database still holds %v", d.reserved)
	}
	if r := d.Relation("C"); cap(r.seg.data) > 2*r.Len() || len(r.seg.dedup) != dedupSize(2) || !d.HasTuple("C", []ast.Const{ast.Int(2)}) {
		t.Fatalf("after the withdrawal C's arena has room for %d, its dedup %d slots", cap(r.seg.data), len(r.seg.dedup))
	}
	d.AddTuple("D", []ast.Const{ast.Int(1)})
	if r := d.Relation("D"); cap(r.seg.data) > 8 {
		t.Fatalf("a withdrawn reservation still sized D: room for %d", cap(r.seg.data))
	}
	d.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on a frozen database did not panic")
		}
	}()
	d.Reserve("E", 10)
}
