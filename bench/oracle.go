package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Oracles. Nothing here calls into the engine: the reference answers come
// from a nested-loop naive evaluator, a plain BFS and direct Go models of
// the workloads' programs. The only engine types that appear are the data
// carriers (core.Program, core.Database) whose fields are read to convert an
// engine result into bench's own representation.

// --- Naive evaluation -------------------------------------------------------

// factSet is a set of ground facts, per predicate, with insertion order.
type factSet struct {
	rows map[string][][]int64
	seen map[string]bool
}

func newFactSet() *factSet {
	return &factSet{rows: make(map[string][][]int64), seen: make(map[string]bool)}
}

func factKey(pred string, args []int64) string {
	var sb strings.Builder
	sb.WriteString(pred)
	for _, a := range args {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatInt(a, 10))
	}
	return sb.String()
}

func (s *factSet) add(pred string, args []int64) bool {
	k := factKey(pred, args)
	if s.seen[k] {
		return false
	}
	s.seen[k] = true
	s.rows[pred] = append(s.rows[pred], append([]int64(nil), args...))
	return true
}

func (s *factSet) len() int { return len(s.seen) }

func (s *factSet) clone() *factSet {
	out := newFactSet()
	for p, rows := range s.rows {
		for _, r := range rows {
			out.add(p, r)
		}
	}
	return out
}

// equalOn reports whether s and t hold the same facts of the given
// predicates.
func (s *factSet) equalOn(t *factSet, preds []string) bool {
	for _, p := range preds {
		if len(s.rows[p]) != len(t.rows[p]) {
			return false
		}
		for _, r := range s.rows[p] {
			if !t.seen[factKey(p, r)] {
				return false
			}
		}
	}
	return true
}

// naiveEval computes the least model of p containing input by naive
// iteration: every rule is re-fired over all facts by a nested-loop join
// until nothing new appears. Quadratic and proud of it — it exists to be
// obviously right on inputs of a few dozen facts.
func naiveEval(p program, input *factSet) *factSet {
	out := input.clone()
	for changed := true; changed; {
		changed = false
		for _, r := range p.rules {
			var derived [][]int64
			joinBody(out, r.body, 0, map[string]int64{}, func(b map[string]int64) {
				derived = append(derived, instantiate(r.head, b))
			})
			for _, t := range derived {
				if out.add(r.head.pred, t) {
					changed = true
				}
			}
		}
	}
	return out
}

func joinBody(s *factSet, body []atom, i int, b map[string]int64, emit func(map[string]int64)) {
	if i == len(body) {
		emit(b)
		return
	}
	a := body[i]
rows:
	for _, row := range s.rows[a.pred] {
		if len(row) != len(a.args) {
			continue
		}
		var bound []string
		for k, t := range a.args {
			switch val, ok := b[t.name]; {
			case !t.isVar && t.val != row[k], t.isVar && ok && val != row[k]:
				for _, n := range bound {
					delete(b, n)
				}
				continue rows
			case t.isVar && !ok:
				b[t.name] = row[k]
				bound = append(bound, t.name)
			}
		}
		joinBody(s, body, i+1, b, emit)
		for _, n := range bound {
			delete(b, n)
		}
	}
}

func instantiate(a atom, b map[string]int64) []int64 {
	out := make([]int64, len(a.args))
	for i, t := range a.args {
		if t.isVar {
			out[i] = b[t.name]
		} else {
			out[i] = t.val
		}
	}
	return out
}

// answers returns the distinct bindings of q's variables over s, as sorted
// strings: what a query for q returns.
func answers(s *factSet, q atom) []string {
	seen := make(map[string]bool)
	joinBody(s, []atom{q}, 0, map[string]int64{}, func(b map[string]int64) {
		var parts []string
		for _, t := range q.args {
			if t.isVar {
				parts = append(parts, strconv.FormatInt(b[t.name], 10))
			}
		}
		seen[strings.Join(parts, ",")] = true
	})
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// randomEDB draws perPred random facts over [0, domain) for each listed
// predicate.
func randomEDB(rg *rng, arity map[string]int, preds []string, domain, perPred int) *factSet {
	s := newFactSet()
	for _, p := range preds {
		for k := 0; k < perPred; k++ {
			args := make([]int64, arity[p])
			for i := range args {
				args[i] = int64(rg.intn(domain))
			}
			s.add(p, args)
		}
	}
	return s
}

// --- Engine results → bench values -----------------------------------------

func fromCoreAtom(a core.Atom) atom {
	out := atom{pred: a.Pred, args: make([]term, len(a.Args))}
	for i, t := range a.Args {
		if t.IsVar {
			out.args[i] = v(t.Name)
		} else {
			out.args[i] = c(int64(t.Val))
		}
	}
	return out
}

func fromCoreProgram(p *core.Program) program {
	var out program
	for _, r := range p.Rules {
		br := rule{head: fromCoreAtom(r.Head)}
		for _, a := range r.Body {
			br.body = append(br.body, fromCoreAtom(a))
		}
		out.rules = append(out.rules, br)
	}
	return out
}

func fromCoreFact(g core.GroundAtom) fact {
	f := fact{pred: g.Pred, args: make([]int64, len(g.Args))}
	for i, a := range g.Args {
		f.args[i] = int64(a)
	}
	return f
}

func toCoreFact(f fact) core.GroundAtom {
	g := core.GroundAtom{Pred: f.pred, Args: make([]core.Const, len(f.args))}
	for i, a := range f.args {
		g.Args[i] = core.Const(a)
	}
	return g
}

func toCoreFacts(fs []fact) []core.GroundAtom {
	out := make([]core.GroundAtom, len(fs))
	for i, f := range fs {
		out[i] = toCoreFact(f)
	}
	return out
}

// --- Order-independent digests ---------------------------------------------

// digest is a commutative multiset hash: the sum of a per-fact 64-bit mix,
// plus the count. Two fact sets agree on it exactly when they are equal (up
// to a 2^-64 collision), without sorting a million rows.
type digest struct {
	sum uint64
	n   int
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (d *digest) add(pred string, args ...int64) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(pred); i++ {
		h = (h ^ uint64(pred[i])) * 1099511628211
	}
	for _, a := range args {
		h = mix64(h ^ mix64(uint64(a)+0x9E3779B97F4A7C15))
	}
	d.sum += mix64(h)
	d.n++
}

func (d digest) String() string {
	return strconv.Itoa(d.n) + ":" + strconv.FormatUint(d.sum, 16)
}

// digestDB hashes the facts of an engine database whose predicate keep
// accepts (nil keeps all).
func digestDB(db *core.Database, keep func(pred string) bool) digest {
	var d digest
	for _, g := range db.Facts() {
		if keep == nil || keep(g.Pred) {
			d.add(g.Pred, fromCoreFact(g).args...)
		}
	}
	return d
}

// sha is the hex SHA-256 of the concatenated parts, the form golden
// digests are stored in.
func sha(parts ...string) string {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(p)))
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- Graph models -----------------------------------------------------------

// adjacency builds successor lists over [0, nodes).
func adjacency(nodes int, es []edge) [][]int {
	adj := make([][]int, nodes)
	for _, e := range es {
		adj[e.from] = append(adj[e.from], e.to)
	}
	return adj
}

// reachFrom returns the nodes reachable from src by one or more edges, by
// BFS. mark is caller-provided scratch of len(adj), reset on return.
func reachFrom(adj [][]int, src int, mark []bool, queue []int) []int {
	queue = queue[:0]
	for _, n := range adj[src] {
		if !mark[n] {
			mark[n] = true
			queue = append(queue, n)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, n := range adj[queue[i]] {
			if !mark[n] {
				mark[n] = true
				queue = append(queue, n)
			}
		}
	}
	for _, n := range queue {
		mark[n] = false
	}
	return queue
}

// closureDigest is the digest of {pred(x, y) : y reachable from x}.
func closureDigest(pred string, nodes int, es []edge) digest {
	adj := adjacency(nodes, es)
	mark := make([]bool, nodes)
	var queue []int
	var d digest
	for x := 0; x < nodes; x++ {
		queue = reachFrom(adj, x, mark, queue)
		for _, y := range queue {
			d.add(pred, int64(x), int64(y))
		}
	}
	return d
}
