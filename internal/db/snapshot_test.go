package db

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
)

func snapDB(n int) *Database {
	d := New()
	for i := 0; i < n; i++ {
		d.AddTuple("E", []ast.Const{ast.Int(int64(i)), ast.Int(int64(i + 1))})
		d.AddTuple("L", []ast.Const{ast.Int(int64(i))})
	}
	return d
}

// TestFrozenStaleIndexConcurrentProbes freezes a database whose index was
// built before the last inserts, so the shared relation carries a stale
// index (built < Len) at share time. The first probes race to extend it;
// copy-on-extend must keep every concurrent lock-free reader on a
// consistent index copy (the race detector flags the old in-place path).
func TestFrozenStaleIndexConcurrentProbes(t *testing.T) {
	const total, keys = 20000, 8
	d := New()
	for i := 0; i < 64; i++ {
		d.AddTuple("E", []ast.Const{ast.Int(int64(i % keys)), ast.Int(int64(i))})
	}
	// Build the index, then grow the relation far past it, so the first
	// post-freeze extension is slow enough for probes to overlap it.
	d.EnsureIndex("E", []int{0})
	for i := 64; i < total; i++ {
		d.AddTuple("E", []ast.Const{ast.Int(int64(i % keys)), ast.Int(int64(i))})
	}
	s := d.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rel := s.DB().Relation("E")
			for iter := 0; iter < 20; iter++ {
				got := 0
				it := rel.Prober([]int{0}, s.DB().Round()).Seek([]ast.Const{ast.Int(int64(g % keys))})
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					got++
				}
				if got != total/keys {
					panic(fmt.Sprintf("probe saw %d tuples for key %d, want %d", got, g%keys, total/keys))
				}
				// A second column set exercises fresh-index creation on the
				// shared relation concurrently with copy-on-extend.
				p := rel.Prober([]int{1}, s.DB().Round())
				pit := p.Seek([]ast.Const{ast.Int(int64(iter))})
				if _, ok := pit.Next(); !ok {
					panic(fmt.Sprintf("probe lost tuple with second column %d", iter))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFreezeMakesDatabaseImmutable(t *testing.T) {
	d := snapDB(4)
	s := d.Freeze()
	if !d.frozen {
		t.Fatal("not frozen after Freeze")
	}
	if s.Len() != d.Len() {
		t.Fatalf("snapshot Len = %d, want %d", s.Len(), d.Len())
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a frozen database did not panic", name)
			}
		}()
		f()
	}
	mustPanic("AddTuple", func() { d.AddTuple("E", []ast.Const{ast.Int(9), ast.Int(9)}) })
	mustPanic("BeginRound", func() { d.BeginRound() })
}

func TestThawCopyOnWrite(t *testing.T) {
	d := snapDB(4)
	before := d.Len()
	s := d.Freeze()

	w := s.Thaw()
	// The staging copy shares every relation until written.
	if w.Relation("E") != d.Relation("E") || w.Relation("L") != d.Relation("L") {
		t.Fatal("Thaw did not share frozen relations")
	}
	if !w.AddTuple("E", []ast.Const{ast.Int(100), ast.Int(101)}) {
		t.Fatal("AddTuple on thawed copy reported duplicate")
	}
	// The written relation was copied; the untouched one is still shared.
	if w.Relation("E") == d.Relation("E") {
		t.Fatal("write to thawed copy mutated the shared relation")
	}
	if w.Relation("L") != d.Relation("L") {
		t.Fatal("untouched relation was copied eagerly")
	}
	if d.Len() != before || s.Len() != before {
		t.Fatalf("snapshot grew: len %d, want %d", s.Len(), before)
	}
	if d.HasTuple("E", []ast.Const{ast.Int(100), ast.Int(101)}) {
		t.Fatal("snapshot sees tuple staged after Freeze")
	}
	if !w.HasTuple("E", []ast.Const{ast.Int(100), ast.Int(101)}) {
		t.Fatal("thawed copy lost its own write")
	}

	// Chained versions: freeze the successor, stage a third.
	s2 := w.Freeze()
	w2 := s2.Thaw()
	w2.AddTuple("L", []ast.Const{ast.Int(200)})
	if s2.DB().HasTuple("L", []ast.Const{ast.Int(200)}) {
		t.Fatal("second snapshot sees third version's write")
	}
}

func TestCloneOfFrozenSharesRelations(t *testing.T) {
	d := snapDB(8)
	d.Freeze()
	c := d.Clone()
	if c.Relation("E") != d.Relation("E") {
		t.Fatal("Clone of a frozen database deep-copied a shared relation")
	}
	if c.Len() != d.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), d.Len())
	}
	// The clone is writable and COWs on write.
	c.AddTuple("E", []ast.Const{ast.Int(50), ast.Int(51)})
	if d.HasTuple("E", []ast.Const{ast.Int(50), ast.Int(51)}) {
		t.Fatal("write to clone leaked into the frozen database")
	}
}

// TestSnapshotConcurrentReaders exercises the snapshot contract under the
// race detector: many goroutines simultaneously probe, build indexes on,
// clone, thaw and write successors of one frozen database.
func TestSnapshotConcurrentReaders(t *testing.T) {
	d := snapDB(64)
	s := d.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				base := s.DB()
				// Lock-free reads and shared index creation.
				base.EnsureIndex("E", []int{g % 2})
				rel := base.Relation("E")
				it := rel.Prober([]int{0}, base.Round()).Seek([]ast.Const{ast.Int(int64(iter % 64))})
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
				// Copy-on-write writers staging private successors.
				w := s.Thaw()
				w.AddTuple("E", []ast.Const{ast.Int(int64(1000 + g)), ast.Int(int64(iter))})
				if !w.HasTuple("E", []ast.Const{ast.Int(int64(1000 + g)), ast.Int(int64(iter))}) {
					panic(fmt.Sprintf("goroutine %d lost its write", g))
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 128 {
		t.Fatalf("snapshot mutated by concurrent readers: len %d, want 128", s.Len())
	}
}
