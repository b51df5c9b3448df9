package db

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/ast"
)

// The version-chain tests drive the two-tier store (relation.go, delete.go)
// against a model that shares nothing with it: a version is an ordered list
// of live tuples. flattenShare is a constant, so the scripts get frequent
// flattens from their sizes instead — a relation of a few hundred tuples
// crosses 1/flattenShare within a couple of batches — and from explicit
// Compact calls, while staying large enough to spend most versions two-tier
// with dead tuples in both tiers.

// modelFact is one live tuple of a model version.
type modelFact struct {
	a, b  ast.Const
	round int32
	count int32
}

// modelRel is a version of one binary relation: its live tuples in insertion
// order (a tuple removed and asserted again moves to the end).
type modelRel []modelFact

func (m modelRel) find(a, b ast.Const) int {
	return slices.IndexFunc(m, func(f modelFact) bool { return f.a == a && f.b == b })
}

// checkVersion compares every reader of d's relation "e" with the model.
// fail reports a mismatch (t.Fatalf on the test goroutine, t.Errorf on others).
func checkVersion(d *Database, m modelRel, maxRound int32, fail func(format string, args ...any)) {
	if d.Len() != len(m) {
		fail("Len = %d, model has %d", d.Len(), len(m))
		return
	}
	rel := d.Relation("e")
	if rel == nil {
		if len(m) != 0 {
			fail("relation missing, model has %d", len(m))
		}
		return
	}
	if rel.Live() != len(m) || rel.Len()-rel.Dead() != len(m) {
		fail("Live = %d, Len-Dead = %d, model has %d", rel.Live(), rel.Len()-rel.Dead(), len(m))
		return
	}
	// Scan order over live ids, round stamps, counts, LookupID.
	k := 0
	for id := 0; id < rel.Len(); id++ {
		if !rel.Alive(id) {
			continue
		}
		if k >= len(m) {
			fail("scan surfaces more than the model's %d tuples", len(m))
			return
		}
		f, tu := m[k], rel.Tuple(id)
		if tu[0] != f.a || tu[1] != f.b || rel.RoundOf(id) != f.round {
			fail("scan position %d: id %d is %v@%d, model has (%d,%d)@%d", k, id, tu, rel.RoundOf(id), f.a, f.b, f.round)
			return
		}
		if got, ok := rel.LookupID(tu); !ok || int(got) != id {
			fail("LookupID(%v) = %d,%v, scan found it at %d", tu, got, ok, id)
			return
		}
		if c, ok := d.TupleCount("e", tu); !ok || c != f.count {
			fail("TupleCount(%v) = %d,%v, model has %d", tu, c, ok, f.count)
			return
		}
		k++
	}
	if k != len(m) {
		fail("scan surfaced %d tuples, model has %d", k, len(m))
		return
	}
	// Facts is the scan, and equals a flat build of the same sequence.
	facts := d.Facts()
	flat := New()
	for _, f := range m {
		flat.AddTuple("e", []ast.Const{f.a, f.b})
	}
	want := flat.Facts()
	if len(facts) != len(want) {
		fail("Facts has %d atoms, flat build %d", len(facts), len(want))
		return
	}
	for i := range want {
		if !slices.Equal(facts[i].Args, want[i].Args) {
			fail("Facts[%d] = %v, flat build has %v", i, facts[i], want[i])
			return
		}
	}
	// LenAt: the live ids below it are exactly the model tuples stamped ≤ r.
	for _, r := range []int32{0, maxRound / 2, maxRound - 1, maxRound} {
		n, wantN := 0, 0
		for id := 0; id < rel.LenAt(r); id++ {
			if rel.Alive(id) {
				n++
			}
		}
		for _, f := range m {
			if f.round <= r {
				wantN++
			}
		}
		if n != wantN {
			fail("LenAt(%d) admits %d live tuples, model has %d", r, n, wantN)
			return
		}
	}
	// Probes on column 0 under round windows: the model's matching tuples,
	// in order; absent tuples and keys miss.
	for _, r := range []int32{maxRound / 2, math.MaxInt32} {
		p := rel.Prober([]int{0}, r)
		for a := ast.Const(0); a < 12; a++ {
			var got, wantB []ast.Const
			it := p.Seek([]ast.Const{a})
			for id, ok := it.Next(); ok; id, ok = it.Next() {
				if tu := rel.Tuple(int(id)); tu[0] != a || !rel.Alive(int(id)) {
					fail("probe a=%d window %d surfaced id %d = %v (alive %v)", a, r, id, tu, rel.Alive(int(id)))
					return
				}
				got = append(got, rel.Tuple(int(id))[1])
			}
			for _, f := range m {
				if f.a == a && f.round <= r {
					wantB = append(wantB, f.b)
				}
			}
			if !slices.Equal(got, wantB) {
				fail("probe a=%d window %d = %v, model has %v", a, r, got, wantB)
				return
			}
		}
	}
	if _, ok := rel.LookupID([]ast.Const{99, 99}); ok {
		fail("LookupID of a tuple never inserted hit")
	}
	// Select with both columns free scans all.
	if n := len(Select(d, ast.NewAtom("e", ast.Var("x"), ast.Var("y")))); n != len(m) {
		fail("Select scan found %d tuples, model has %d", n, len(m))
	}
}

// versionScript is one seeded lineage: a database evolving through batches
// of Add/Remove/BumpCount/BeginRound/Compact, frozen after each.
type versionScript struct {
	t     *testing.T // the script runs on the test's goroutine
	rng   *rand.Rand
	w     *Database
	model modelRel
}

func newVersionScript(t *testing.T, seed int64, initial int) *versionScript {
	s := &versionScript{t: t, rng: rand.New(rand.NewSource(seed)), w: New()}
	for len(s.model) < initial {
		s.add()
	}
	return s
}

func (s *versionScript) pick() (ast.Const, ast.Const) {
	return ast.Const(s.rng.Intn(12)), ast.Const(s.rng.Intn(70)) // 840 values: re-asserting a removed one is common
}

func (s *versionScript) add() {
	a, b := s.pick()
	s.addTuple(a, b)
}

func (s *versionScript) addTuple(a, b ast.Const) {
	added := s.w.AddTuple("e", []ast.Const{a, b})
	if (s.model.find(a, b) < 0) != added {
		s.t.Fatalf("AddTuple(%d,%d) = %v, model disagrees", a, b, added)
	}
	if added {
		s.model = append(s.model, modelFact{a: a, b: b, round: s.w.Round()})
	}
}

// batch applies n random writes to the thawed successor.
func (s *versionScript) batch(n int) {
	for i := 0; i < n; i++ {
		switch op := s.rng.Intn(20); {
		case op < 8:
			s.add()
		case op < 15 && len(s.model) > 0:
			// Mostly remove present tuples, sometimes a random (likely absent)
			// one, sometimes one of the newest — a tail tuple — which is then
			// asserted again at once, in the tier its dead copy sits in.
			a, b := s.pick()
			kind := s.rng.Intn(8)
			if kind > 1 {
				f := s.model[s.rng.Intn(len(s.model))]
				a, b = f.a, f.b
			} else if kind == 1 {
				f := s.model[len(s.model)-1-s.rng.Intn(min(4, len(s.model)))]
				a, b = f.a, f.b
			}
			at := s.model.find(a, b)
			if removed := s.w.RemoveTuple("e", []ast.Const{a, b}); removed != (at >= 0) {
				s.t.Fatalf("RemoveTuple(%d,%d) = %v, model disagrees", a, b, removed)
			}
			if at >= 0 {
				s.model = slices.Delete(s.model, at, at+1)
			}
			if kind == 1 {
				s.addTuple(a, b)
			}
		case op < 18 && len(s.model) > 0:
			at := s.rng.Intn(len(s.model))
			f := &s.model[at]
			delta := int32(s.rng.Intn(5) - 1)
			f.count += delta
			if got, ok := s.w.BumpCount("e", []ast.Const{f.a, f.b}, delta); !ok || got != f.count {
				s.t.Fatalf("BumpCount(%d,%d) = %d,%v, model has %d", f.a, f.b, got, ok, f.count)
			}
		case op == 18:
			s.w.BeginRound()
		default:
			s.w.Compact()
		}
	}
}

// seal freezes the successor and thaws the next one, returning the frozen
// version with a private copy of its model.
func (s *versionScript) seal() (*Database, modelRel) {
	snap := s.w.Freeze()
	s.w = snap.Thaw()
	return snap.DB(), slices.Clone(s.model)
}

// TestVersionsRandomizedDifferential runs seeded scripts over a version
// chain and, after every batch, re-checks the new version and every retained
// older one against their models: no later write, copy-on-write or flatten
// may show through a frozen version.
func TestVersionsRandomizedDifferential(t *testing.T) {
	type version struct {
		d *Database
		m modelRel
	}
	for seed := int64(1); seed <= 4; seed++ {
		s := newVersionScript(t, seed, 150+int(seed)*100)
		var kept []version
		flat, tiered := 0, 0
		for step := 0; step < 60; step++ {
			s.batch(1 + s.rng.Intn(30))
			d, m := s.seal()
			kept = append(kept, version{d, m})
			if len(kept) > 6 {
				// Keep the oldest around for the whole script; rotate the rest.
				kept = slices.Delete(kept, 1, 2)
			}
			if rel := d.Relation("e"); rel.base == nil {
				flat++
			} else {
				tiered++
			}
			for vi, v := range kept {
				checkVersion(v.d, v.m, s.w.Round(), func(format string, args ...any) {
					t.Fatalf("seed %d step %d, version %d of %d: %s", seed, step, vi, len(kept), fmt.Sprintf(format, args...))
				})
			}
		}
		if flat == 0 || tiered == 0 {
			t.Fatalf("seed %d: script sealed %d flat and %d two-tier versions; it must cover both", seed, flat, tiered)
		}
	}
}

// TestVersionsConcurrentReaders is the differential script under the race
// detector: goroutines keep re-checking frozen versions — scans, lookups,
// probes that lazily build indexes on shared bases — while the lineage
// writes successors sharing those bases.
func TestVersionsConcurrentReaders(t *testing.T) {
	s := newVersionScript(t, 7, 400)
	type version struct {
		d     *Database
		m     modelRel
		round int32
	}
	versions := make(chan version)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []version
			for v := range versions {
				mine = append(mine, v)
				for _, old := range mine {
					checkVersion(old.d, old.m, old.round, func(format string, args ...any) {
						t.Errorf("reader: "+format, args...)
					})
				}
			}
		}()
	}
	for step := 0; step < 24; step++ {
		s.batch(1 + s.rng.Intn(20))
		round := s.w.Round()
		d, m := s.seal()
		versions <- version{d, m, round}
	}
	close(versions)
	wg.Wait()
}

// bigRelation returns a frozen database holding n binary tuples of "e" with
// an index on column 0.
func bigRelation(n int) *Snapshot {
	d := New()
	for i := 0; i < n; i++ {
		d.AddTuple("e", []ast.Const{ast.Const(i % 1000), ast.Const(i)})
	}
	d.EnsureIndex("e", []int{0})
	return d.Freeze()
}

// TestMutationCostFollowsBatch pins O(batch): successive 4-fact batches
// against a 100k-tuple frozen relation copy no more tuples than the tail
// they have accumulated, and allocate a small fraction of the relation.
func TestMutationCostFollowsBatch(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := bigRelation(n)
	runtime.ReadMemStats(&after)
	relBytes := after.TotalAlloc - before.TotalAlloc // ≥ the relation's size: growth garbage included
	relBytes /= 3                                    // doubling growth allocates < 3× the final arrays
	if relBytes < n*20 {
		t.Fatalf("implausible relation size %d bytes", relBytes)
	}
	base := snap.DB().Relation("e")
	for batch := 0; batch < 8; batch++ {
		tail := snap.DB().Relation("e").Len() - base.Len()
		runtime.ReadMemStats(&before)
		w := snap.Thaw()
		for k := 0; k < 2; k++ {
			i := batch*2 + k
			if !w.RemoveTuple("e", []ast.Const{ast.Const(i % 1000), ast.Const(i)}) {
				t.Fatalf("batch %d: tuple %d missing", batch, i)
			}
			if !w.AddTuple("e", []ast.Const{ast.Const(i), ast.Const(n + i)}) {
				t.Fatalf("batch %d: fresh tuple reported duplicate", batch)
			}
		}
		next := w.Freeze()
		runtime.ReadMemStats(&after)
		if got := w.TuplesCopied(); got > 2*tail {
			t.Fatalf("batch %d copied %d tuples over a %d-tuple tail", batch, got, tail)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > relBytes/10 {
			t.Fatalf("batch %d allocated %d bytes, relation holds ≈ %d", batch, got, relBytes)
		}
		if next.DB().Relation("e").base != &base.seg {
			t.Fatalf("batch %d: successor does not share the 100k-tuple segment", batch)
		}
		snap = next
	}
	if snap.Len() != n {
		t.Fatalf("Len = %d after balanced batches, want %d", snap.Len(), n)
	}
}

// TestReadPathsAllocateNothing holds LookupID, Seek+Next and the id scan to
// zero allocations on a flat relation and on a two-tier one with dead tuples
// in both tiers.
func TestReadPathsAllocateNothing(t *testing.T) {
	flat := bigRelation(20_000)
	w := flat.Thaw()
	for i := 0; i < 300; i++ {
		w.AddTuple("e", []ast.Const{ast.Const(i % 1000), ast.Const(100_000 + i)})
	}
	for i := 0; i < 300; i += 3 {
		w.RemoveTuple("e", []ast.Const{ast.Const(i % 1000), ast.Const(i)})
		w.RemoveTuple("e", []ast.Const{ast.Const(i % 1000), ast.Const(100_000 + i)})
	}
	tiered := w.Freeze()
	for name, snap := range map[string]*Snapshot{"flat": flat, "two-tier": tiered} {
		rel := snap.DB().Relation("e")
		if (rel.base != nil) != (name == "two-tier") || (rel.Dead() > 0) != (name == "two-tier") {
			t.Fatalf("%s relation: base=%v dead=%d", name, rel.base != nil, rel.Dead())
		}
		rel.EnsureIndex([]int{0})
		key, full := []ast.Const{0}, []ast.Const{0, 0}
		sum := 0
		probe := testing.AllocsPerRun(50, func() {
			p := rel.Prober([]int{0}, math.MaxInt32)
			for a := 0; a < 50; a++ {
				key[0] = ast.Const(a)
				it := p.Seek(key)
				for id, ok := it.Next(); ok; id, ok = it.Next() {
					sum += int(rel.Tuple(int(id))[1])
				}
			}
		})
		lookup := testing.AllocsPerRun(50, func() {
			for i := 0; i < 100; i++ {
				full[0], full[1] = ast.Const(i%1000), ast.Const(i)
				if id, ok := rel.LookupID(full); ok {
					sum += int(id)
				}
			}
		})
		scan := testing.AllocsPerRun(5, func() {
			for id := 0; id < rel.Len(); id++ {
				if rel.Alive(id) {
					sum += int(rel.Tuple(id)[0])
				}
			}
		})
		if probe != 0 || lookup != 0 || scan != 0 {
			t.Errorf("%s relation: allocs per run: Seek+Next %v, LookupID %v, scan %v; want 0", name, probe, lookup, scan)
		}
		_ = sum
	}
}

// TestMaxGeneratedIndexesSkipsDeadTuples: a retracted fact must stop
// steering fresh-constant generation even while it still holds its id (the
// relation is large enough that neither write crosses the flatten share).
func TestMaxGeneratedIndexesSkipsDeadTuples(t *testing.T) {
	d := New()
	for i := 0; i < 64; i++ {
		d.AddTuple("p", []ast.Const{ast.Int(int64(i)), ast.NullConst(0)})
	}
	hiFrozen, hiNull := ast.FrozenConst(8), ast.NullConst(8)
	d.AddTuple("p", []ast.Const{hiFrozen, hiNull})
	if f, n := d.MaxGeneratedIndexes(); f != 8 || n != 8 {
		t.Fatalf("MaxGeneratedIndexes = %d,%d, want 8,8", f, n)
	}
	w := d.Freeze().Thaw()
	w.RemoveTuple("p", []ast.Const{hiFrozen, hiNull})
	for _, db := range []*Database{w, w.Freeze().DB()} {
		if rel := db.Relation("p"); rel.Dead() != 1 {
			t.Fatalf("the retracted fact was compacted away (dead=%d): the test no longer covers lazy compaction", rel.Dead())
		}
		if f, n := db.MaxGeneratedIndexes(); f != -1 || n != 0 {
			t.Fatalf("MaxGeneratedIndexes = %d,%d after the retraction, want -1,0", f, n)
		}
	}
}
