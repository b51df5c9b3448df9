package db

import (
	"repro/internal/ast"
)

// Sharded evaluation support. A shard view hash-partitions a relation's
// tuples by one column into n ownership classes: tuple id belongs to shard
// ShardOf(tuple[col], n). The view is a partitioned lens over the existing
// columnar arena — no tuple is copied or moved, so Clone and Freeze keep
// their costs — and the sharded evaluator uses it to split a round's outer
// enumeration into disjoint per-shard slices while inner probes keep reading
// the shared frozen indexes (an implicit broadcast of the non-partitioned
// side).
//
// Concurrency model mirrors the column indexes: views are immutable once
// published (swapped through an atomic pointer), built or extended under mu
// at round boundaries, and read lock-free during a round. Extension always
// copies (one byte per tuple) and republishes, so readers holding an older
// view keep a consistent, merely shorter, assignment — the discipline shared
// relations under frozen snapshots require.

// ShardView is an immutable tuple → owner-shard assignment. The zero value
// assigns every tuple to shard 0, which is the "home shard" fallback for
// non-partitionable relations (nullary predicates, no usable join column).
type ShardView struct {
	of []uint8
}

// Owner returns the shard owning tuple id. Ids beyond the view's coverage
// must not be asked for; the evaluator only consults views built at a round
// boundary for ids its round windows admit, which are exactly the covered
// prefix (round stamps are non-decreasing).
func (v ShardView) Owner(id int32) uint8 {
	if v.of == nil {
		return 0
	}
	return v.of[id]
}

// Covered reports how many tuple ids the view assigns.
func (v ShardView) Covered() int { return len(v.of) }

// ShardOf returns the owner shard of a single partition-key constant under n
// shards, using the same mix as the relation hash tables so assignment is
// deterministic across processes and databases.
func ShardOf(c ast.Const, n int) uint8 {
	h := mixConst(hashSeed, c)
	h ^= h >> 32
	return uint8(h % uint64(n))
}

// ShardOwner returns the owner shard of a tuple under partition column col
// and n shards. Out-of-range columns (the home-shard fallback, col < 0) and
// the unsharded case map everything to shard 0.
func ShardOwner(args []ast.Const, col, n int) uint8 {
	if n <= 1 || col < 0 || col >= len(args) {
		return 0
	}
	return ShardOf(args[col], n)
}

// shardAssign is one built assignment, keyed by (col, n).
type shardAssign struct {
	col int
	n   int
	of  []uint8
}

// shardSet is an immutable association list of the relation's built views.
// Like indexSet it is tiny (one entry per distinct (col, n) actually used),
// so lookup is a linear scan.
type shardSet struct {
	views []*shardAssign
}

func (s *shardSet) find(col, n int) *shardAssign {
	for _, v := range s.views {
		if v.col == col && v.n == n {
			return v
		}
	}
	return nil
}

// EnsureShardView builds (or extends to cover all current tuples) the shard
// assignment for partition column col under n shards and returns it. The
// sharded evaluator calls this at round boundaries, next to EnsureIndex, so
// every in-round ownership test is a lock-free array read. Unusable
// parameters (n ≤ 1, col out of range) yield the zero view.
func (r *Relation) EnsureShardView(col, n int) ShardView {
	if n <= 1 || n > 256 || col < 0 || col >= r.arity {
		return ShardView{}
	}
	if set := r.shardViews.Load(); set != nil {
		if sa := set.find(col, n); sa != nil && len(sa.of) == r.Len() {
			return ShardView{of: sa.of}
		}
	}
	return r.ensureShardLocked(col, n)
}

func (r *Relation) ensureShardLocked(col, n int) ShardView {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.shardViews.Load()
	var sa *shardAssign
	if set != nil {
		sa = set.find(col, n)
	}
	ln := r.Len()
	if sa != nil && len(sa.of) == ln {
		return ShardView{of: sa.of}
	}
	// Build or extend. Published assignments are read lock-free, so extension
	// copies into a fresh array and republishes rather than appending in
	// place; at one byte per tuple the copy is far cheaper than the round's
	// joins, and shared (frozen) relations never grow, so their views extend
	// at most once.
	of := make([]uint8, ln)
	start := 0
	if sa != nil {
		start = copy(of, sa.of)
	}
	for id := start; id < ln; id++ {
		of[id] = ShardOf(r.Tuple(id)[col], n)
	}
	ns := &shardSet{}
	if set != nil {
		for _, v := range set.views {
			if v.col != col || v.n != n {
				ns.views = append(ns.views, v)
			}
		}
	}
	ns.views = append(ns.views, &shardAssign{col: col, n: n, of: of})
	r.shardViews.Store(ns)
	return ShardView{of: of}
}

// EnsureShardView builds or extends the shard assignment of pred's relation
// for partition column col under n shards. A predicate with no relation (no
// tuples yet) yields the zero view; the evaluator's outer enumerations check
// the relation first, so the view is never consulted in that case.
func (d *Database) EnsureShardView(pred string, col, n int) ShardView {
	r := d.Relation(pred)
	if r == nil {
		return ShardView{}
	}
	return r.EnsureShardView(col, n)
}
