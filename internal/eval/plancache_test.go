package eval

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/twoq"
)

func cacheProgram(t *testing.T, i int) *ast.Program {
	t.Helper()
	res, err := parser.Parse(fmt.Sprintf("P(x) :- A%d(x).", i))
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

// newPlanCache returns a cache of its own, bounded to max plans.
func newPlanCache(max int) *PlanCache {
	return &PlanCache{plans: twoq.New[*Prepared](max)}
}

// prepareHit is PlanCache.Prepare reporting whether the plan was cached.
func prepareHit(pc *PlanCache, p *ast.Program) (*Prepared, bool, error) {
	return pc.GetOrBuildCanonical(p.CanonicalString(), func() (*Prepared, error) { return Prepare(p) })
}

// TestPlanCacheEvictionBound checks the 2Q contract at capacity 4: a stream
// of distinct programs never grows the cache past its capacity, evictions
// are counted, and the newest first sightings stay resident. A program that
// returns after its eviction is admitted to the protected segment, and a
// later scan of one-off programs — each prepared twice — leaves it resident.
func TestPlanCacheEvictionBound(t *testing.T) {
	pc := newPlanCache(4)
	const n = 20
	for i := 0; i < n; i++ {
		if _, _, err := prepareHit(pc, cacheProgram(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := pc.Stats()
	if st.Entries > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", st.Entries)
	}
	if st.Evictions != n-4 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-4)
	}
	if st.Misses != n {
		t.Fatalf("misses = %d, want %d (all programs distinct)", st.Misses, n)
	}
	// The four newest programs must hit; the oldest must miss.
	for i := n - 4; i < n; i++ {
		if _, hit, err := prepareHit(pc, cacheProgram(t, i)); err != nil || !hit {
			t.Fatalf("program %d evicted though among the newest (hit=%v err=%v)", i, hit, err)
		}
	}
	if _, hit, err := prepareHit(pc, cacheProgram(t, 0)); err != nil || hit {
		t.Fatalf("program 0 should have been evicted (hit=%v err=%v)", hit, err)
	}
	// Program 0's return pushed program 16 out of probation; program 16 is
	// on the ghost list, so its return admits it to the protected segment.
	if _, hit, err := prepareHit(pc, cacheProgram(t, 16)); err != nil || hit {
		t.Fatalf("program 16 should have been evicted (hit=%v err=%v)", hit, err)
	}
	for i := 100; i < 100+10*4; i++ {
		for k := 0; k < 2; k++ {
			if _, _, err := prepareHit(pc, cacheProgram(t, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, hit, err := prepareHit(pc, cacheProgram(t, 16)); err != nil || !hit {
		t.Fatalf("a returning program was flushed by one-off programs (hit=%v err=%v)", hit, err)
	}
	if st := pc.Stats(); st.Entries > 4 {
		t.Fatalf("cache holds %d entries, capacity 4", st.Entries)
	}
}

// TestPlanCacheHitReturnsSamePlan checks content addressing: canonically
// equal (alpha-renamed) programs share one plan.
func TestPlanCacheHitReturnsSamePlan(t *testing.T) {
	pc := newPlanCache(8)
	p := cacheProgram(t, 1)
	prep1, hit, err := prepareHit(pc, p)
	if err != nil || hit {
		t.Fatalf("first prepare: hit=%v err=%v", hit, err)
	}
	renamed := p.Clone()
	renamed.Rules[0] = renamed.Rules[0].Rename(func(v string) string { return v + "_r" })
	prep2, hit, err := prepareHit(pc, renamed)
	if err != nil || !hit {
		t.Fatalf("alpha-renamed twin missed the cache (hit=%v err=%v)", hit, err)
	}
	if prep1 != prep2 {
		t.Fatal("alpha-renamed twin got a different plan")
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines over a
// small program set (run under -race); every returned plan for a program
// must be usable and hits+misses must equal the number of lookups.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := newPlanCache(8)
	progs := make([]*ast.Program, 6)
	for i := range progs {
		progs[i] = cacheProgram(t, i)
	}
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := progs[(g+i)%len(progs)]
				if _, err := pc.Prepare(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := pc.Stats()
	if st.Hits+st.Misses != 8*perG {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*perG)
	}
}
