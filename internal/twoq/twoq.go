// Package twoq is a bounded, scan-resistant cache keyed by strings, with the
// 2Q replacement policy of Johnson and Shasha (VLDB 1994). The engine's
// process-wide memos — the plan cache and the verdict store — see a working
// set of programs that recurs, mixed with programs seen once:
//
//   - every first sighting enters probation, a FIFO; a hit there changes
//     nothing, so a key looked up again within one operation is not promoted;
//   - a key evicted from probation leaves its 64-bit hash on a bounded ghost
//     list, and a miss matching a ghost is admitted to protected, an LRU.
//
// Once the cache is full, probation keeps its share of it, so a scan of
// one-off keys churns probation and the ghost list and evicts nothing
// protected.
package twoq

import (
	"hash/maphash"
	"sync"
)

// Cache is a 2Q cache from string keys to values of type V. It is safe for
// concurrent use.
type Cache[V any] struct {
	mu                      sync.Mutex
	capacity                int
	kin                     int // probation's share once the cache is full
	entries                 map[string]*entry[V]
	probation               ring[V] // front = newest
	protected               ring[V] // front = most recently used
	ghosts                  ghosts
	hits, misses, evictions uint64
}

type entry[V any] struct {
	key        string
	hash       uint64
	val        V
	protected  bool
	prev, next *entry[V] // within its segment
}

// Stats is a point-in-time snapshot of a cache's counters and resident keys.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// New returns a cache holding at most capacity entries (at least one), of
// which probation keeps capacity/4 (at least one) once the cache is full;
// the ghost list remembers as many evicted keys as the cache holds.
func New[V any](capacity int) *Cache[V] {
	capacity = max(capacity, 1)
	c := &Cache[V]{
		capacity: capacity,
		kin:      max(capacity/4, 1),
		entries:  make(map[string]*entry[V]),
		ghosts:   ghosts{ring: make([]uint64, capacity), at: make(map[uint64]uint64)},
	}
	c.probation.init()
	c.protected.init()
	return c
}

var seed = maphash.MakeSeed()

// Get returns the value resident under key and reports whether there is
// one. A hit in protected makes the key most recently used; a hit in
// probation changes nothing.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.entries[key])
}

// GetBytes is Get for a key held in a byte slice; it does not allocate.
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.entries[string(key)])
}

func (c *Cache[V]) touch(e *entry[V]) (V, bool) {
	if e == nil {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	if e.protected {
		c.protected.remove(e)
		c.protected.pushFront(e)
	}
	return e.val, true
}

// Put stores val under key unless a value is resident there, and returns
// the value now resident. A key whose hash is a ghost enters protected, any
// other probation; a full cache evicts one entry first, after reading the
// ghost list, so the eviction cannot push out the ghost being admitted.
func (c *Cache[V]) Put(key string, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.val
	}
	e := &entry[V]{key: key, hash: maphash.String(seed, key), val: val}
	e.protected = c.ghosts.take(e.hash)
	if len(c.entries) >= c.capacity {
		c.evict()
	}
	if e.protected {
		c.protected.pushFront(e)
	} else {
		c.probation.pushFront(e)
	}
	c.entries[key] = e
	return val
}

// evict drops one entry: probation's oldest, its hash going to the ghost
// list, while probation holds its share or protected is empty, and
// protected's least recently used otherwise.
func (c *Cache[V]) evict() {
	seg := &c.protected
	if c.probation.n >= c.kin || c.protected.n == 0 {
		seg = &c.probation
	}
	e := seg.back()
	seg.remove(e)
	if !e.protected {
		c.ghosts.add(e.hash)
	}
	delete(c.entries, e.key)
	c.evictions++
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries)}
}

// Values returns the resident values, in no particular order.
func (c *Cache[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals := make([]V, 0, len(c.entries))
	for _, e := range c.entries {
		vals = append(vals, e.val)
	}
	return vals
}

// ring is an intrusive doubly linked list of entries around a sentinel.
type ring[V any] struct {
	root entry[V]
	n    int
}

func (r *ring[V]) init()           { r.root.prev, r.root.next = &r.root, &r.root }
func (r *ring[V]) back() *entry[V] { return r.root.prev }

func (r *ring[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &r.root, r.root.next
	e.next.prev, r.root.next = e, e
	r.n++
}

func (r *ring[V]) remove(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	r.n--
}

// ghosts is a FIFO of hashes over a fixed ring; at maps each hash to the
// sequence number of its latest slot, so a slot falling off the ring
// forgets its hash only if no later slot holds it. While the ring fills,
// seq-n wraps around and matches no slot.
type ghosts struct {
	ring []uint64
	seq  uint64 // hashes ever added
	at   map[uint64]uint64
}

func (g *ghosts) add(h uint64) {
	n, i := uint64(len(g.ring)), g.seq%uint64(len(g.ring))
	if old := g.ring[i]; g.at[old] == g.seq-n {
		delete(g.at, old)
	}
	g.ring[i], g.at[h] = h, g.seq
	g.seq++
}

// take reports whether h is on the list and forgets it: a ghost admits its
// key once.
func (g *ghosts) take(h uint64) bool {
	_, ok := g.at[h]
	delete(g.at, h)
	return ok
}
