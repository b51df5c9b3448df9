package twoq

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// fill looks key up and, on a miss, stores v under it: the way both memos
// use the cache.
func fill(c *Cache[int], key string, v int) (hit bool) {
	if _, ok := c.Get(key); ok {
		return true
	}
	c.Put(key, v)
	return false
}

// checkShape asserts the invariants every operation keeps: the segments
// partition the resident entries, which never exceed the capacity, and the
// ghost list remembers at most as many hashes as its ring holds.
func checkShape[V any](t *testing.T, c *Cache[V]) {
	t.Helper()
	if len(c.entries) > c.capacity {
		t.Fatalf("%d resident entries, capacity %d", len(c.entries), c.capacity)
	}
	if c.probation.n+c.protected.n != len(c.entries) {
		t.Fatalf("segments hold %d+%d entries, map %d", c.probation.n, c.protected.n, len(c.entries))
	}
	if len(c.ghosts.at) > len(c.ghosts.ring) {
		t.Fatalf("ghost list remembers %d hashes, ring of %d", len(c.ghosts.at), len(c.ghosts.ring))
	}
}

// TestBound streams keys drawn from a growing space, recurring and one-off
// alike, and checks the bounds after every operation.
func TestBound(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		c := New[int](capacity)
		for i := 0; i < 20*capacity+100; i++ {
			key := fmt.Sprint(i % (3*capacity + 1))
			if i%3 == 0 {
				key = fmt.Sprint("one-off ", i)
			}
			fill(c, key, i)
			checkShape(t, c)
		}
		st := c.Stats()
		if st.Entries != capacity {
			t.Fatalf("capacity %d: %d resident after the stream", capacity, st.Entries)
		}
		if st.Evictions != st.Misses-uint64(capacity) {
			t.Fatalf("capacity %d: %d evictions for %d misses", capacity, st.Evictions, st.Misses)
		}
	}
}

// TestScanResistance: keys that recur are protected, and a scan of ten
// times the capacity of one-off keys — each looked up twice, as a one-off
// program is within its own operation — evicts none of them.
func TestScanResistance(t *testing.T) {
	const capacity = 16
	c := New[int](capacity)
	hot := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	// First sightings enter probation; a scan of the probation share pushes
	// them out onto the ghost list, and their return admits them to the
	// protected segment.
	for _, k := range hot {
		fill(c, k, 1)
	}
	for i := 0; i < capacity; i++ {
		fill(c, fmt.Sprint("warm ", i), 0)
	}
	for _, k := range hot {
		if fill(c, k, 1) {
			t.Fatalf("%s still resident after a scan of the whole capacity", k)
		}
	}
	if c.protected.n != len(hot) {
		t.Fatalf("%d protected entries after the hot keys returned, want %d", c.protected.n, len(hot))
	}
	for i := 0; i < 10*capacity; i++ {
		k := fmt.Sprint("scan ", i)
		fill(c, k, 0)
		fill(c, k, 0)
		checkShape(t, c)
	}
	for _, k := range hot {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s was evicted by a scan of one-off keys", k)
		}
	}
}

// TestRepeatLookupsDoNotPromote: k back-to-back lookups of a key in
// probation are hits that promote nothing, so the key leaves with the next
// scan of the probation share.
func TestRepeatLookupsDoNotPromote(t *testing.T) {
	const capacity = 16
	c := New[int](capacity)
	// Fill the protected segment so that probation is held to its share.
	for i := 0; i < capacity; i++ {
		fill(c, fmt.Sprint("w", i), 0)
	}
	for i := 0; i < capacity; i++ {
		fill(c, fmt.Sprint("filler ", i), 0)
	}
	for i := 0; i < capacity; i++ {
		fill(c, fmt.Sprint("w", i), 0)
	}
	// Grow probation back to its share: while it is below, a new key
	// evicts from the protected segment.
	for i := 0; c.probation.n < c.kin; i++ {
		c.Put(fmt.Sprint("grow ", i), 0)
	}
	protected := c.protected.n
	c.Put("once", 1)
	for k := 0; k < 10; k++ {
		if _, ok := c.Get("once"); !ok {
			t.Fatalf("lookup %d of a resident key missed", k)
		}
	}
	if c.protected.n != protected || c.entries["once"].protected {
		t.Fatal("repeat lookups admitted a one-off key to the protected segment")
	}
	for i := 0; i < c.kin; i++ {
		c.Put(fmt.Sprint("next ", i), 0)
	}
	if _, ok := c.Get("once"); ok {
		t.Fatal("a one-off key outlived a scan of the probation share")
	}
}

// TestSmallCapacities: every capacity, the smallest included, gives
// probation at least one slot, so a first sighting is resident until the
// next one, and a returning key is admitted to the protected segment.
func TestSmallCapacities(t *testing.T) {
	for capacity := 0; capacity <= 4; capacity++ {
		c := New[int](capacity)
		if c.kin < 1 || c.kin > c.capacity {
			t.Fatalf("capacity %d: probation share %d", capacity, c.kin)
		}
		c.Put("a", 1)
		if v, ok := c.Get("a"); !ok || v != 1 {
			t.Fatalf("capacity %d: a first sighting is not resident", capacity)
		}
		for i := 0; i < c.capacity; i++ {
			c.Put(fmt.Sprint(i), 0)
		}
		if _, ok := c.Get("a"); ok {
			t.Fatalf("capacity %d: a outlived a scan of the capacity", capacity)
		}
		c.Put("a", 2)
		if !c.entries["a"].protected {
			t.Fatalf("capacity %d: a returning key was not admitted to the protected segment", capacity)
		}
		checkShape(t, c)
	}
}

// TestConcurrent runs Get, GetBytes, Put, Stats and Values from several
// goroutines at once (run under -race); every lookup is counted once.
func TestConcurrent(t *testing.T) {
	c := New[int](8)
	const goroutines, perG = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprint((g*7 + i) % 24)
				var ok bool
				if i%2 == 0 {
					_, ok = c.Get(key)
				} else {
					_, ok = c.GetBytes([]byte(key))
				}
				if !ok {
					c.Put(key, i)
				}
				if i%50 == 0 {
					_ = c.Stats()
					_ = c.Values()
				}
			}
		}(g)
	}
	wg.Wait()
	checkShape(t, c)
	if st := c.Stats(); st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*perG)
	}
}

// TestGetBytesAllocs: a lookup by a byte-slice key, hit or miss, does not
// allocate.
func TestGetBytesAllocs(t *testing.T) {
	c := New[int](4)
	key := []byte("P(x) :- A(x, y), B(y, x).\nQ(x) :- P(x).\n")
	c.Put(string(key), 1)
	other := []byte("R(x) :- A(x, y), B(y, x).\nQ(x) :- P(x).\n")
	if n := testing.AllocsPerRun(100, func() {
		c.GetBytes(key)
		c.GetBytes(other)
	}); n != 0 {
		t.Fatalf("GetBytes allocates %.0f times", n)
	}
}

// model is a naive 2Q over slices, the reference FuzzCache holds Cache to:
// each segment is a slice with its front at index 0, and the ghost list is
// the keys of the last len(ring) evictions from probation, a key counting
// only at its newest position and only until a Put takes it.
type model struct {
	capacity, kin, kout     int
	probation, protected    []string
	ghosts                  []ghost
	vals                    map[string]int
	hits, misses, evictions uint64
}

type ghost struct {
	key  string
	live bool
}

func newModel(capacity int) *model {
	capacity = max(capacity, 1)
	return &model{capacity: capacity, kin: max(capacity/4, 1), kout: capacity, vals: map[string]int{}}
}

func (m *model) get(key string) (int, bool) {
	if i := slices.Index(m.protected, key); i >= 0 {
		m.protected = slices.Insert(slices.Delete(m.protected, i, i+1), 0, key)
	} else if !slices.Contains(m.probation, key) {
		m.misses++
		return 0, false
	}
	m.hits++
	return m.vals[key], true
}

func (m *model) put(key string, v int) int {
	if old, ok := m.vals[key]; ok {
		return old
	}
	i := slices.IndexFunc(m.ghosts, func(g ghost) bool { return g.key == key })
	admit := i >= 0 && m.ghosts[i].live
	if admit {
		m.ghosts[i].live = false
	}
	if len(m.vals) >= m.capacity {
		var victim string
		if len(m.probation) >= m.kin || len(m.protected) == 0 {
			victim = m.probation[len(m.probation)-1]
			m.probation = m.probation[:len(m.probation)-1]
			m.ghosts = slices.Insert(m.ghosts, 0, ghost{victim, true})
			if len(m.ghosts) > m.kout {
				m.ghosts = m.ghosts[:m.kout]
			}
		} else {
			victim = m.protected[len(m.protected)-1]
			m.protected = m.protected[:len(m.protected)-1]
		}
		delete(m.vals, victim)
		m.evictions++
	}
	if admit {
		m.protected = slices.Insert(m.protected, 0, key)
	} else {
		m.probation = slices.Insert(m.probation, 0, key)
	}
	m.vals[key] = v
	return v
}

// FuzzCache replays a random sequence of lookups and stores against the
// reference model: every answer, every counter and the resident set must
// agree after each operation. The first byte picks the capacity; each
// further byte is one operation on one of 32 keys.
func FuzzCache(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 1, 129, 130, 6, 7, 8, 9, 1, 129, 2, 130})
	f.Add([]byte{0, 1, 1, 129, 2, 130, 1, 129, 1})
	// A second Put of a resident key keeps the first value, as a racing
	// duplicate build needs.
	f.Add([]byte{4, 160, 160, 161, 1, 161, 0})
	f.Add([]byte{15, 0, 128, 1, 129, 2, 130, 3, 131, 4, 132, 5, 133, 6, 134, 7, 135, 8, 136, 9, 137, 0, 128, 1, 129})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0] % 16)
		c, m := New[int](capacity), newModel(capacity)
		for i, op := range ops[1:] {
			key := fmt.Sprint(op & 31)
			switch op >> 5 {
			case 0, 1: // the memos' pattern: look up, store on a miss
				v, ok := c.Get(key)
				mv, mok := m.get(key)
				if ok != mok || v != mv {
					t.Fatalf("op %d: Get(%s) = %d, %v; model %d, %v", i, key, v, ok, mv, mok)
				}
				if !ok && c.Put(key, i) != m.put(key, i) {
					t.Fatalf("op %d: Put(%s) after a miss disagrees with the model", i, key)
				}
			case 2, 3, 4: // a lookup alone
				v, ok := c.GetBytes([]byte(key))
				mv, mok := m.get(key)
				if ok != mok || v != mv {
					t.Fatalf("op %d: GetBytes(%s) = %d, %v; model %d, %v", i, key, v, ok, mv, mok)
				}
			default: // a store alone, resident or not
				if got, want := c.Put(key, i), m.put(key, i); got != want {
					t.Fatalf("op %d: Put(%s) = %d, model %d", i, key, got, want)
				}
			}
			checkShape(t, c)
			st := c.Stats()
			if st.Hits != m.hits || st.Misses != m.misses || st.Evictions != m.evictions {
				t.Fatalf("op %d: counters %+v, model hits=%d misses=%d evictions=%d", i, st, m.hits, m.misses, m.evictions)
			}
			var got []string
			for k := range c.entries {
				got = append(got, k)
			}
			slices.Sort(got)
			want := append(slices.Clone(m.probation), m.protected...)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: resident %v, model %v", i, got, want)
			}
		}
	})
}
