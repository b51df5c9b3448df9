package workload

import (
	"math/rand"
	"slices"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/parser"
)

// --- Authorization tenants ---------------------------------------------------

// Authz returns the access-control program of the maintenance benchmarks: a
// recursive membership closure under two non-recursive strata.
func Authz() *ast.Program {
	return parser.MustParseProgram(`
		Member(u, g) :- Direct(u, g).
		Member(u, g) :- Member(u, h), Subgroup(h, g).
		HasRole(u, r) :- Member(u, g), Grant(g, r).
		CanRead(u, d) :- HasRole(u, r), Allows(r, d).
	`)
}

// AuthzSizes are the dimensions of an authorization tenant.
type AuthzSizes struct {
	Users, Groups, Roles, Docs, DocsPerRole int
}

// Labels of the four kinds of entity, in disjoint ranges while a tenant has
// at most 1,000 groups, 8,000 roles and 90,000 documents.
const (
	authzUser  = 100000
	authzGroup = 1000
	authzRole  = 2000
	authzDoc   = 10000
)

// AuthzTenant returns an authorization tenant drawn from rng: every user
// directly in one or two groups (Direct), a three-ary forest of subgroups
// (Subgroup), one or two roles granted per group (Grant) and DocsPerRole
// document draws per role (Allows).
func AuthzTenant(rng *rand.Rand, sz AuthzSizes) *db.Database {
	d := db.New()
	for u := int64(0); u < int64(sz.Users); u++ {
		for k := 0; k <= rng.Intn(2); k++ {
			d.Add(edge("Direct", authzUser+u, authzGroup+rng.Int63n(int64(sz.Groups))))
		}
	}
	for g := int64(1); g < int64(sz.Groups); g++ {
		d.Add(edge("Subgroup", authzGroup+g, authzGroup+(g-1)/3))
	}
	for g := int64(0); g < int64(sz.Groups); g++ {
		for k := 0; k <= rng.Intn(2); k++ {
			d.Add(edge("Grant", authzGroup+g, authzRole+rng.Int63n(int64(sz.Roles))))
		}
	}
	for r := int64(0); r < int64(sz.Roles); r++ {
		for k := 0; k < sz.DocsPerRole; k++ {
			d.Add(edge("Allows", authzRole+r, authzDoc+rng.Int63n(int64(sz.Docs))))
		}
	}
	return d
}

// Batch is one mutation batch of an input database.
type Batch struct {
	Assert, Retract []ast.GroundAtom
}

// Inverse is the batch that undoes b when applied right after it.
func (b Batch) Inverse() Batch { return Batch{Assert: b.Retract, Retract: b.Assert} }

// AuthzChurn returns n mutation batches for tenant, an AuthzTenant of sizes
// sz, drawn from rng. Each batch is four toggles, retract and assert in
// turn, each of a Direct (6 in 8), Grant (1 in 8) or Allows (1 in 8) fact: a
// retract picks a present fact, an assert an absent one (up to eight draws),
// and no batch touches a fact twice. Membership changes dominate, as in a
// live directory; a grant or an ACL change fans out to every transitive
// member. The batches are drawn against the tenant as the ones before left
// it, so they apply in order, and each one's Inverse undoes it; tenant is not
// modified.
func AuthzChurn(rng *rand.Rand, tenant *db.Database, sz AuthzSizes, n int) []Batch {
	type table struct {
		pred string
		lo   [2]int64 // each column's first label
		n    [2]int   // and label count
		rows []ast.GroundAtom
		at   map[[2]ast.Const]int // row index of each present fact
	}
	tables := [3]*table{
		{pred: "Direct", lo: [2]int64{authzUser, authzGroup}, n: [2]int{sz.Users, sz.Groups}},
		{pred: "Grant", lo: [2]int64{authzGroup, authzRole}, n: [2]int{sz.Groups, sz.Roles}},
		{pred: "Allows", lo: [2]int64{authzRole, authzDoc}, n: [2]int{sz.Roles, sz.Docs}},
	}
	key := func(g ast.GroundAtom) [2]ast.Const { return [2]ast.Const(g.Args) }
	for _, t := range tables {
		t.at = make(map[[2]ast.Const]int)
		rel := tenant.Relation(t.pred)
		for id := 0; rel != nil && id < rel.Len(); id++ {
			if rel.Alive(id) {
				g := ast.NewGroundAtom(t.pred, rel.Tuple(id)...)
				t.at[key(g)] = len(t.rows)
				t.rows = append(t.rows, g)
			}
		}
	}
	out := make([]Batch, n)
	for i := range out {
		b := &out[i]
		touched := func(g ast.GroundAtom) bool {
			same := func(h ast.GroundAtom) bool { return h.Pred == g.Pred && key(h) == key(g) }
			return slices.ContainsFunc(b.Retract, same) || slices.ContainsFunc(b.Assert, same)
		}
		for k := 0; k < 4; k++ {
			t := tables[0]
			switch rng.Intn(8) {
			case 6:
				t = tables[1]
			case 7:
				t = tables[2]
			}
			if k%2 == 0 {
				if len(t.rows) == 0 {
					continue
				}
				j := rng.Intn(len(t.rows))
				if g := t.rows[j]; !touched(g) {
					last := t.rows[len(t.rows)-1]
					t.rows[j], t.at[key(last)] = last, j
					t.rows = t.rows[:len(t.rows)-1]
					delete(t.at, key(g))
					b.Retract = append(b.Retract, g)
				}
				continue
			}
			for try := 0; try < 8; try++ {
				g := edge(t.pred, t.lo[0]+rng.Int63n(int64(t.n[0])), t.lo[1]+rng.Int63n(int64(t.n[1])))
				if _, present := t.at[key(g)]; !present && !touched(g) {
					t.at[key(g)] = len(t.rows)
					t.rows = append(t.rows, g)
					b.Assert = append(b.Assert, g)
					break
				}
			}
		}
	}
	return out
}
