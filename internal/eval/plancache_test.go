package eval

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func cacheProgram(t *testing.T, i int) *ast.Program {
	t.Helper()
	res, err := parser.Parse(fmt.Sprintf("P(x) :- A%d(x).", i))
	if err != nil {
		t.Fatal(err)
	}
	return res.Program
}

// prepareHit is PlanCache.Prepare reporting whether the plan was cached.
func prepareHit(pc *PlanCache, p *ast.Program, opts Options) (*Prepared, bool, error) {
	return pc.GetOrBuildCanonical(p.CanonicalString(), opts, func() (*Prepared, error) { return Prepare(p, opts) })
}

// TestPlanCacheEvictionBound checks the LRU bound: a stream of distinct
// programs never grows the cache past its capacity, evictions are counted,
// and the most recently used entries survive while the oldest are evicted.
func TestPlanCacheEvictionBound(t *testing.T) {
	pc := NewPlanCache(4)
	const n = 20
	for i := 0; i < n; i++ {
		if _, _, err := prepareHit(pc, cacheProgram(t, i), Options{}); err != nil {
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
	// The four most recent programs must hit; the oldest must miss.
	for i := n - 4; i < n; i++ {
		if _, hit, err := prepareHit(pc, cacheProgram(t, i), Options{}); err != nil || !hit {
			t.Fatalf("program %d evicted though recently used (hit=%v err=%v)", i, hit, err)
		}
	}
	if _, hit, err := prepareHit(pc, cacheProgram(t, 0), Options{}); err != nil || hit {
		t.Fatalf("program 0 should have been evicted (hit=%v err=%v)", hit, err)
	}
}

// TestPlanCacheHitReturnsSamePlan checks content addressing: canonically
// equal (alpha-renamed) programs share one plan; different Options do not.
func TestPlanCacheHitReturnsSamePlan(t *testing.T) {
	pc := NewPlanCache(8)
	p := cacheProgram(t, 1)
	prep1, hit, err := prepareHit(pc, p, Options{})
	if err != nil || hit {
		t.Fatalf("first prepare: hit=%v err=%v", hit, err)
	}
	renamed := p.Clone()
	renamed.Rules[0] = renamed.Rules[0].Rename(func(v string) string { return v + "_r" })
	prep2, hit, err := prepareHit(pc, renamed, Options{})
	if err != nil || !hit {
		t.Fatalf("alpha-renamed twin missed the cache (hit=%v err=%v)", hit, err)
	}
	if prep1 != prep2 {
		t.Fatal("alpha-renamed twin got a different plan")
	}
	_, hit, err = prepareHit(pc, p, Options{Shards: 2})
	if err != nil || hit {
		t.Fatalf("different options must not share a plan (hit=%v err=%v)", hit, err)
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines over a
// small program set (run under -race); every returned plan for a program
// must be usable and hits+misses must equal the number of lookups.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := NewPlanCache(8)
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
				if _, err := pc.Prepare(p, Options{}); err != nil {
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

// singleFieldOptions returns, per Options field, a copy of the zero Options
// with just that field set. It is reflect-driven so a field added to Options lands in the plan-key
// tests without anyone remembering to list it.
func singleFieldOptions(t *testing.T) map[string]Options {
	t.Helper()
	out := make(map[string]Options)
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int32, reflect.Int64:
			v.SetInt(3)
		default:
			t.Fatalf("Options.%s has kind %s: teach singleFieldOptions to perturb it", f.Name, v.Kind())
		}
		out[f.Name] = o
	}
	return out
}

// TestPlanKeyCoversEveryOption: Options is Shards and nothing else, and the
// field moves the plan fingerprint (an unfingerprinted field makes a shared
// cache hand one caller another caller's plan).
func TestPlanKeyCoversEveryOption(t *testing.T) {
	if typ := reflect.TypeOf(Options{}); typ.NumField() != 1 || typ.Field(0).Name != "Shards" {
		t.Fatalf("Options = %v, want the one field Shards", typ)
	}
	zero := planKey(Options{})
	seen := map[uint64]string{zero: "zero Options"}
	for name, o := range singleFieldOptions(t) {
		key := planKey(o)
		if other, dup := seen[key]; dup {
			t.Errorf("setting Options.%s yields the same plan key as %s", name, other)
		}
		seen[key] = "Options." + name
	}
}

// TestPlanCacheSingleFieldOptionsNeverShare: two option sets differing in
// any single field never share a *Prepared.
func TestPlanCacheSingleFieldOptionsNeverShare(t *testing.T) {
	pc := NewPlanCache(32)
	p := cacheProgram(t, 1)
	base, err := pc.Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[*Prepared]string{base: "zero Options"}
	for name, o := range singleFieldOptions(t) {
		prep, hit, err := prepareHit(pc, p, o)
		if err != nil {
			t.Fatalf("Options.%s: %v", name, err)
		}
		if other, shared := owner[prep]; hit || shared {
			t.Errorf("Options.%s was served the plan of %s (hit=%v)", name, other, hit)
		}
		owner[prep] = "Options." + name
		if again, hit, _ := prepareHit(pc, p, o); !hit || again != prep {
			t.Errorf("Options.%s: repeat lookup missed its own plan", name)
		}
	}
}
