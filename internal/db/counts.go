package db

// countCol is a relation's derivation-count column: one int32 per tuple id,
// held in fixed-size pages so versions of a relation share the pages a batch
// does not touch. A version may write only the pages it owns; the first
// write to any other copies that page (copy-on-write at page granularity),
// which keeps a count adjustment on a large maintained relation O(page)
// where a flat column would copy O(relation). The last page is the only
// partial one and grows by append.
type countCol struct {
	pages [][]int32 // nil = counts disabled
	own   []bool    // own[p]: page p is private to this version
}

const (
	countPageBits = 8
	countPageMask = 1<<countPageBits - 1
)

func (c *countCol) on() bool { return c.pages != nil }

// enable materializes an all-zero column over n ids, its pages cut from one
// allocation.
func (c *countCol) enable(n int) {
	all := make([]int32, n)
	c.pages = make([][]int32, (n+countPageMask)>>countPageBits)
	c.own = make([]bool, len(c.pages))
	for p := range c.pages {
		lo := p << countPageBits
		hi := min(n, lo+countPageMask+1)
		c.pages[p], c.own[p] = all[lo:hi:hi], true
	}
}

func (c *countCol) get(id int32) int32 {
	return c.pages[id>>countPageBits][id&countPageMask]
}

// page returns page p for writing, copying it first unless owned.
func (c *countCol) page(p int) []int32 {
	if !c.own[p] {
		c.pages[p] = append([]int32(nil), c.pages[p]...)
		c.own[p] = true
	}
	return c.pages[p]
}

func (c *countCol) add(id, delta int32) int32 {
	pg := c.page(int(id >> countPageBits))
	pg[id&countPageMask] += delta
	return pg[id&countPageMask]
}

// push appends a zero count for the new tuple id, which must be the next id.
func (c *countCol) push(id int) {
	p := id >> countPageBits
	if p == len(c.pages) {
		c.pages = append(c.pages, nil)
		c.own = append(c.own, true)
	}
	c.pages[p] = append(c.page(p), 0)
}

// clone returns the column of a copy of the relation. A frozen source never
// writes again, so the copy aliases its pages and owns none; a source that
// is still writable would, so its pages are copied outright.
func (c countCol) clone(frozen bool) countCol {
	if !c.on() {
		return countCol{}
	}
	n := countCol{pages: append(make([][]int32, 0, len(c.pages)), c.pages...), own: make([]bool, len(c.pages))}
	if !frozen {
		for p := range n.pages {
			n.page(p)
		}
	}
	return n
}
