package unfold

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// A build interns every unfolded rule it derives as one node per canonical
// key (the rule up to alpha-renaming and body order) and records the layer
// at which the node first became available: a node is available at layer d
// when some derivation tree of height ≤ d produces it, and only nodes
// available within the depth bound appear in the output program.

const (
	kindToDepth = iota
	kindPartial
)

// node is one unfolded rule: its canonical representative (renamed +
// body-sorted), the canonical key and its availability layer.
type node struct {
	rule   ast.Rule
	key    string
	height int32
}

// builder is the state of one unfolding run; it owns its intern table.
type builder struct {
	kind     int
	idb      map[string]bool
	nodes    []node
	keys     map[string]struct{}
	byPred   map[string][]int32 // node ids by head predicate
	perLayer []int              // nodes that became available per layer
	overCap  bool
	counter  int // rename-apart tag for candidate substitution
}

func newBuilder(p *ast.Program, depth, kind int) *builder {
	return &builder{
		kind:     kind,
		idb:      p.IDBPredicates(),
		keys:     make(map[string]struct{}),
		byPred:   make(map[string][]int32),
		perLayer: make([]int, depth+1),
	}
}

// canonicalize renders r with variables renamed in order of first
// occurrence and body atoms sorted by their rendering, returning the
// canonical rule and its key. Alpha-equivalent (and body-permuted, when the
// renaming agrees) unfoldings collapse to one node, and the representative
// is a function of the key alone — two builds that reach the same node emit
// byte-identical rules for it. (Renaming depends on the original body
// order, so this is a heuristic dedup, not a full isomorphism check —
// duplicates that slip through only cost time, never correctness.)
func canonicalize(r ast.Rule) (ast.Rule, string) {
	names := map[string]string{}
	rename := func(v string) string {
		if n, ok := names[v]; ok {
			return n
		}
		n := fmt.Sprintf("v%d", len(names))
		names[v] = n
		return n
	}
	canon := r.Rename(rename)
	rendered := make([]string, len(canon.Body))
	for i, a := range canon.Body {
		rendered[i] = a.String()
	}
	sort.Sort(&bodyByRendering{atoms: canon.Body, rendered: rendered})
	var sb strings.Builder
	sb.WriteString(canon.Head.String())
	sb.WriteString(":-")
	sb.WriteString(strings.Join(rendered, ","))
	return canon, sb.String()
}

type bodyByRendering struct {
	atoms    []ast.Atom
	rendered []string
}

func (b *bodyByRendering) Len() int           { return len(b.atoms) }
func (b *bodyByRendering) Less(i, j int) bool { return b.rendered[i] < b.rendered[j] }
func (b *bodyByRendering) Swap(i, j int) {
	b.atoms[i], b.atoms[j] = b.atoms[j], b.atoms[i]
	b.rendered[i], b.rendered[j] = b.rendered[j], b.rendered[i]
}

// idbPositions returns the body indexes of r's intentional atoms, ascending.
func (b *builder) idbPositions(r ast.Rule) []int {
	var pos []int
	for i, a := range r.Body {
		if b.idb[a.Pred] {
			pos = append(pos, i)
		}
	}
	return pos
}

// add makes r's canonical form available at layer unless an alpha-
// equivalent rule already is (the first, lowest layer wins).
func (b *builder) add(r ast.Rule, layer int32) {
	canon, key := canonicalize(r)
	if _, ok := b.keys[key]; ok {
		return
	}
	b.keys[key] = struct{}{}
	pred := canon.Head.Pred
	b.byPred[pred] = append(b.byPred[pred], int32(len(b.nodes)))
	b.nodes = append(b.nodes, node{rule: canon, key: key, height: layer})
	b.perLayer[layer]++
	if len(b.nodes) > maxRules {
		b.overCap = true
	}
}

// candClass selects substitution candidates for one intentional position.
type candClass struct {
	ids  []int32
	leaf bool // the position may stay a leaf (Partial old/any classes)
}

// filter returns the available nodes of pred with lo ≤ height ≤ hi.
func (b *builder) filter(pred string, lo, hi int32) []int32 {
	var out []int32
	for _, id := range b.byPred[pred] {
		if h := b.nodes[id].height; h >= lo && h <= hi {
			out = append(out, id)
		}
	}
	return out
}

// expandAt enumerates, at layer d, every substitution combination for rule
// r whose least pivot position holds a child first available at layer d-1
// — the semi-naive window, so each combination is enumerated at exactly one
// layer.
func (b *builder) expandAt(r ast.Rule, d int32) {
	idbPos := b.idbPositions(r)
	leaf := b.kind == kindPartial
	for t := range idbPos {
		classes := make([]candClass, len(idbPos))
		for asc, i := range idbPos {
			pred := r.Body[i].Pred
			switch {
			case asc < t:
				classes[asc] = candClass{ids: b.filter(pred, 1, d-2), leaf: leaf}
			case asc == t:
				classes[asc] = candClass{ids: b.filter(pred, d-1, d-1)}
			default:
				classes[asc] = candClass{ids: b.filter(pred, 1, d-1), leaf: leaf}
			}
		}
		if len(classes[t].ids) == 0 {
			continue
		}
		if !b.expand(r, idbPos, d, classes) {
			return
		}
	}
}

// expand substitutes candidates into rule r, one class per intentional
// position (ascending order), making every successful unification a node
// available at layer d. Unification is mgu-level (a constant in a child's
// head can specialize the whole rule). Positions are processed right-to-left
// so body indexes stay valid when an atom is replaced by a multi-atom child
// body. Returns false when the rule cap was hit.
func (b *builder) expand(r ast.Rule, idbPos []int, d int32, classes []candClass) bool {
	m := len(idbPos)
	var rec func(pos int, cur ast.Rule) bool
	rec = func(pos int, cur ast.Rule) bool {
		if pos == m {
			b.add(cur, d)
			return !b.overCap
		}
		asc := m - 1 - pos
		i := idbPos[asc]
		cls := classes[asc]
		if cls.leaf && !rec(pos+1, cur) {
			return false
		}
		atom := cur.Body[i]
		for _, cid := range cls.ids {
			cand := b.nodes[cid].rule
			b.counter++
			tag := b.counter
			fresh := cand.Rename(func(v string) string {
				return fmt.Sprintf("%s·u%d", v, tag)
			})
			u := ast.NewUnifier()
			if !u.UnifyAtoms(atom, fresh.Head) {
				continue
			}
			next := ast.Rule{Head: u.Apply(cur.Head)}
			for j, a := range cur.Body {
				if j == i {
					next.Body = append(next.Body, u.ApplyAll(fresh.Body)...)
					continue
				}
				next.Body = append(next.Body, u.Apply(a))
			}
			if !rec(pos+1, next) {
				return false
			}
		}
		return true
	}
	return rec(0, r.Clone())
}

// result assembles the output program in deterministic (predicate, key)
// order; a capped run is reported incomplete.
func (b *builder) result() Result {
	sort.Slice(b.nodes, func(i, j int) bool {
		ni, nj := &b.nodes[i], &b.nodes[j]
		if ni.rule.Head.Pred != nj.rule.Head.Pred {
			return ni.rule.Head.Pred < nj.rule.Head.Pred
		}
		return ni.key < nj.key
	})
	var rules []ast.Rule
	for _, n := range b.nodes {
		rules = append(rules, n.rule)
	}
	return Result{Program: ast.NewProgram(rules...), Complete: !b.overCap}
}
