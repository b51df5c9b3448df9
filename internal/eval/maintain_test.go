package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/workload"
)

// canonFacts renders a database as one sorted canonical fact per line — the
// byte-identity form the maintenance oracle compares.
func canonFacts(d *db.Database) string {
	var sb strings.Builder
	for _, g := range sortedFacts(d) {
		sb.WriteString(g.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// sortedFacts is d's facts in canonical (predicate, arguments) order.
func sortedFacts(d *db.Database) []ast.GroundAtom {
	facts := d.Facts()
	slices.SortFunc(facts, compareFacts)
	return facts
}

func mustMaterialize(t *testing.T, p *ast.Program, input *db.Database) *Maintained {
	t.Helper()
	m, _ := mustMaterializePlan(t, p, input)
	return m
}

// mustMaterializePlan is mustMaterialize that also returns the plan the view
// was built from, for checks (checkStamps) that read the view's own rules.
func mustMaterializePlan(t *testing.T, p *ast.Program, input *db.Database) (*Maintained, *Prepared) {
	t.Helper()
	pr, err := Prepare(p)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	m, _, err := pr.Materialize(context.Background(), input)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return m, pr
}

func applyOrFatal(t *testing.T, m *Maintained, delta Delta) Diff {
	t.Helper()
	diff, _, err := m.Apply(context.Background(), delta)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return diff
}

// insertInto is the insert-only use of a view: materialize P(base), assert
// facts, and return the maintained output with the Apply's stats.
func insertInto(t *testing.T, p *ast.Program, base *db.Database, facts []ast.GroundAtom) (*db.Database, Stats) {
	t.Helper()
	m := mustMaterialize(t, p, base)
	_, st, err := m.Apply(context.Background(), Delta{Assert: facts})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return m.Output(), st
}

func TestIncrementalEqualsFullReEval(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 10)
	// Insert a back edge closing the chain into a cycle.
	newFacts := []ast.GroundAtom{ga("A", 10, 0)}
	inc, incStats := insertInto(t, p, base, newFacts)
	full := base.Clone()
	for _, f := range newFacts {
		full.Add(f)
	}
	want := MustEval(p, full)
	if !inc.Equal(want) {
		t.Fatalf("incremental %d facts, full %d facts", inc.Len(), want.Len())
	}
	if incStats.Added == 0 {
		t.Fatal("no incremental derivations recorded")
	}
}

func TestIncrementalNoOp(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 5)
	// Re-inserting existing facts derives nothing.
	inc, stats := insertInto(t, p, base, []ast.GroundAtom{ga("A", 0, 1)})
	if !inc.Equal(MustEval(p, base)) || stats.Added != 0 || stats.Firings != 0 {
		t.Fatalf("no-op insertion changed the DB: %+v", stats)
	}
}

func TestIncrementalCheaperThanReEval(t *testing.T) {
	p := workload.TransitiveClosure()
	base := workload.Chain("A", 40)
	newFacts := []ast.GroundAtom{ga("A", 100, 101)} // disconnected edge
	_, incStats := insertInto(t, p, base, newFacts)
	full := base.Clone()
	full.Add(newFacts[0])
	_, fullStats, err := Eval(p, full)
	if err != nil {
		t.Fatal(err)
	}
	if incStats.Firings >= fullStats.Firings {
		t.Fatalf("incremental fired %d >= full %d", incStats.Firings, fullStats.Firings)
	}
}

func TestQuickIncrementalAgreesWithFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(4))
		if p.Validate() != nil {
			return true
		}
		base := workload.RandomDB(rng, p, 4, 3)
		extra := workload.RandomDB(rng, p, 4, 2)
		inc, _ := insertInto(t, p, base, extra.Facts())
		full := base.Clone()
		full.AddAll(extra)
		want, _, err := Eval(p, full)
		if err != nil {
			return false
		}
		return inc.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalNegationExact: inserting E(1,2) has to retract Unreach(2).
// A view remembers which of its facts were inputs, so an insertion under
// negation is maintained exactly rather than refused.
func TestIncrementalNegationExact(t *testing.T) {
	p := mustParseProgram(t, `
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Unreach(x) :- Node(x), !Reach(x).
	`)
	base := db.FromFacts([]ast.GroundAtom{ga("Node", 1), ga("Node", 2), ga("Src", 1)})
	if !MustEval(p, base).Has(ga("Unreach", 2)) {
		t.Fatal("Unreach(2) not derived before the insertion")
	}
	inc, _ := insertInto(t, p, base, []ast.GroundAtom{ga("E", 1, 2)})
	full := base.Clone()
	full.Add(ga("E", 1, 2))
	if inc.Has(ga("Unreach", 2)) || !inc.Equal(MustEval(p, full)) {
		t.Fatalf("insertion under negation left a stale view:\n%s", inc)
	}
}

func TestMaintainCountingBasic(t *testing.T) {
	p := mustParseProgram(t, `
		P(x, y) :- E(x, y).
		Q(x, z) :- E(x, y), P(y, z).
	`)
	input := db.New()
	input.Add(ga("E", 1, 2))
	input.Add(ga("E", 2, 3))
	m := mustMaterialize(t, p, input)
	if !m.Output().Has(ga("Q", 1, 3)) {
		t.Fatal("missing Q(1,3) in the materialized view")
	}

	// Assert a new edge: Q(2,4) and Q(1,3) already present, P(3,4), Q(2,4) appear.
	diff := applyOrFatal(t, m, Delta{Assert: []ast.GroundAtom{ga("E", 3, 4)}})
	if len(diff.Removed) != 0 {
		t.Fatalf("assertion removed facts: %v", diff.Removed)
	}
	wantAdded := map[string]bool{
		ga("E", 3, 4).Key(): true, ga("P", 3, 4).Key(): true, ga("Q", 2, 4).Key(): true,
	}
	if len(diff.Added) != len(wantAdded) {
		t.Fatalf("added %v, want 3 facts", diff.Added)
	}
	for _, g := range diff.Added {
		if !wantAdded[g.Key()] {
			t.Fatalf("unexpected added fact %v", g)
		}
	}

	// Retract the middle edge: everything through node 2 collapses.
	diff = applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("E", 2, 3)}})
	if len(diff.Added) != 0 {
		t.Fatalf("retraction added facts: %v", diff.Added)
	}
	full := MustEval(p, db.FromFacts([]ast.GroundAtom{ga("E", 1, 2), ga("E", 3, 4)}))
	if got, want := canonFacts(m.Output()), canonFacts(full); got != want {
		t.Fatalf("maintained view diverged:\n%s\nwant:\n%s", got, want)
	}
}

func TestMaintainCountingSharedSupport(t *testing.T) {
	// P(5) has two derivations; retracting one support keeps it alive.
	p := mustParseProgram(t, `P(y) :- A(y). P(y) :- B(y).`)
	input := db.FromFacts([]ast.GroundAtom{ga("A", 5), ga("B", 5)})
	m := mustMaterialize(t, p, input)
	diff := applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("A", 5)}})
	if len(diff.Removed) != 1 || diff.Removed[0].Pred != "A" {
		t.Fatalf("diff = %+v, want only A(5) removed", diff)
	}
	if !m.Output().Has(ga("P", 5)) {
		t.Fatal("P(5) lost its surviving derivation")
	}
	diff = applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("B", 5)}})
	if m.Output().Has(ga("P", 5)) {
		t.Fatal("P(5) survived with no derivations")
	}
	if len(diff.Removed) != 2 {
		t.Fatalf("diff = %+v, want B(5) and P(5) removed", diff)
	}
}

func TestMaintainExternalSupport(t *testing.T) {
	// An input fact of a derived predicate is its own support.
	p := mustParseProgram(t, `P(y) :- E(y).`)
	input := db.FromFacts([]ast.GroundAtom{ga("E", 3), ga("P", 3), ga("P", 5)})
	m := mustMaterialize(t, p, input)

	// P(5) is input-only: retracting it removes it.
	diff := applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("P", 5)}})
	if m.Output().Has(ga("P", 5)) || len(diff.Removed) != 1 {
		t.Fatalf("input-only P(5) not removed: %+v", diff)
	}
	// P(3) is both input and derived: retracting the input keeps it.
	diff = applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("P", 3)}})
	if !m.Output().Has(ga("P", 3)) {
		t.Fatal("P(3) lost despite E(3) derivation")
	}
	if len(diff.Removed) != 0 {
		t.Fatalf("spurious removals %v", diff.Removed)
	}
	// Now retract the derivation too.
	applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("E", 3)}})
	if m.Output().Has(ga("P", 3)) {
		t.Fatal("P(3) survived with no support")
	}
}

// TestNonRecursiveSupportIgnoresStamps: HasRole(1, 7) keeps two firings, and
// the one through Member(1, 20) rests on a fact a later batch brought back,
// stamped above HasRole(1, 7). Retracting Grant(10, 7) takes the older firing
// away. HasRole's unit reads none of its own heads, so the newer firing is
// support enough: the fact stays where it is — same id, same stamp — nothing
// is over-deleted, and the diff is the retracted fact alone.
func TestNonRecursiveSupportIgnoresStamps(t *testing.T) {
	p := mustParseProgram(t, `
		Member(u, g) :- Direct(u, g).
		Member(u, g) :- Member(u, h), Subgroup(h, g).
		HasRole(u, r) :- Member(u, g), Grant(g, r).
	`)
	input := db.FromFacts([]ast.GroundAtom{ga("Direct", 1, 10), ga("Direct", 1, 20), ga("Grant", 10, 7), ga("Grant", 20, 7)})
	m := mustMaterialize(t, p, input)
	applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("Direct", 1, 20)}})
	applyOrFatal(t, m, Delta{Assert: []ast.GroundAtom{ga("Direct", 1, 20)}})

	stamp := func(g ast.GroundAtom) (int32, int32) {
		rel := m.Output().Relation(g.Pred)
		id, ok := rel.LookupID(g.Args)
		if !ok {
			t.Fatalf("%v is not in the view", g)
		}
		return id, rel.RoundOf(int(id))
	}
	role := ga("HasRole", 1, 7)
	id, round := stamp(role)
	if _, member := stamp(ga("Member", 1, 20)); member <= round {
		t.Fatalf("Member(1, 20) is stamped %d, not above HasRole(1, 7)'s %d: the test no longer has a newer premise", member, round)
	}
	diff, stats, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("Grant", 10, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	if gotID, gotRound := stamp(role); gotID != id || gotRound != round {
		t.Fatalf("HasRole(1, 7) moved from id %d round %d to id %d round %d", id, round, gotID, gotRound)
	}
	if stats.Overdeleted != 0 || len(diff.Added) != 0 || len(diff.Removed) != 1 || diff.Removed[0].Key() != ga("Grant", 10, 7).Key() {
		t.Fatalf("overdeleted %d, diff %+v; want 0 and only Grant(10, 7) removed", stats.Overdeleted, diff)
	}
	checkSupport(t, m, 0)
}

func TestMaintainDRedTransitiveClosure(t *testing.T) {
	p := workload.TransitiveClosure()
	input := workload.Chain("A", 8)
	m := mustMaterialize(t, p, input)

	// Cutting the chain in the middle halves the closure.
	diff, stats, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("A", 4, 5)}})
	if err != nil {
		t.Fatal(err)
	}
	ref := workload.Chain("A", 8)
	ref.Remove(ga("A", 4, 5))
	ref.Compact()
	if got, want := canonFacts(m.Output()), canonFacts(MustEval(p, ref)); got != want {
		t.Fatalf("after cut:\n%s\nwant:\n%s", got, want)
	}
	// The 5·4 facts G(i, j) with i ≤ 4 < j are exactly those with a
	// derivation through the cut edge, and none has another.
	if stats.Overdeleted != 20 || stats.Rederived != 0 {
		t.Fatalf("overdeleted/rederived = %d/%d, want 20/0", stats.Overdeleted, stats.Rederived)
	}
	for _, g := range diff.Added {
		t.Fatalf("retraction added %v", g)
	}

	// Re-linking via an alternative edge rederives the long paths.
	applyOrFatal(t, m, Delta{Assert: []ast.GroundAtom{ga("A", 4, 5)}})
	if got, want := canonFacts(m.Output()), canonFacts(MustEval(p, workload.Chain("A", 8))); got != want {
		t.Fatalf("after re-link:\n%s\nwant:\n%s", got, want)
	}
}

func TestMaintainDRedRederivesAlternativePath(t *testing.T) {
	// Diamond: 0→1→3 and 0→2→3. Cutting 1→3 must keep G(0,3) via the
	// alternative path.
	p := workload.TransitiveClosure()
	input := db.FromFacts([]ast.GroundAtom{
		ga("A", 0, 1), ga("A", 1, 3), ga("A", 0, 2), ga("A", 2, 3),
	})
	m := mustMaterialize(t, p, input)
	diff, stats, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("A", 1, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Output().Has(ga("G", 0, 3)) {
		t.Fatal("G(0,3) lost despite alternative path")
	}
	// Only G(1,3) is over-deleted. G(0,3) is a candidate — G(0,1), G(1,3) derived
	// it too — but G(0,2) and G(2,3) are stamped a round below it, so the
	// alternative path certifies it where it stands and nothing is rederived.
	if stats.Overdeleted != 1 || stats.Rederived != 0 {
		t.Fatalf("overdeleted/rederived = %d/%d, want 1/0", stats.Overdeleted, stats.Rederived)
	}
	for _, g := range diff.Removed {
		if g.Key() == ga("G", 0, 3).Key() {
			t.Fatal("G(0,3) reported removed")
		}
	}
}

// TestDRedOverdeletionIsLocal: a retraction over-deletes the facts that lost
// every stamp-older proof, not the facts with some derivation through the
// retracted one — in a strongly connected graph those are the whole closure.
func TestDRedOverdeletionIsLocal(t *testing.T) {
	const n = 160
	rng := rand.New(rand.NewSource(5))
	input := workload.Cycle("A", n) // strongly connected, out-degree 2–3 with the chords
	var edges []ast.GroundAtom
	for i := int64(0); i < n; i++ {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			if g := ga("A", i, rng.Int63n(n)); input.Add(g) {
				edges = append(edges, g)
			}
		}
	}
	m := mustMaterialize(t, workload.TransitiveClosureLinear(), input)
	view := m.Output().Len()
	if view < n*n {
		t.Fatalf("view has %d facts: the graph is not strongly connected", view)
	}
	for _, e := range edges[:20] {
		for _, delta := range []Delta{{Retract: []ast.GroundAtom{e}}, {Assert: []ast.GroundAtom{e}}} {
			_, stats, err := m.Apply(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Overdeleted > view/4 {
				t.Fatalf("%+v over-deleted %d of %d facts", delta, stats.Overdeleted, view)
			}
		}
		if m.Output().Len() != view {
			t.Fatalf("re-asserting %v left %d facts, want %d", e, m.Output().Len(), view)
		}
	}

	// K₁₂: every G(x, y) but the retracted edge's own keeps its edge, and
	// every G(x, x) a two-step proof through a third node.
	m = mustMaterialize(t, workload.TransitiveClosure(), workload.Complete("A", 12))
	diff, stats, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("A", 3, 7)}})
	if err != nil || stats.Overdeleted != 1 || stats.Rederived != 1 || len(diff.Removed) != 1 {
		t.Fatalf("K12: overdeleted/rederived = %d/%d, diff %+v, err %v; want 1/1 and only the edge removed", stats.Overdeleted, stats.Rederived, diff, err)
	}
}

// TestMaintainDRedInputFactOfHead: an input fact of a head predicate that is
// retracted loses its external support only; it stays while the rules derive
// it, also when the derivation falls in the same batch.
func TestMaintainDRedInputFactOfHead(t *testing.T) {
	p := workload.TransitiveClosureLinear()
	input := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 2, 3), ga("G", 1, 3), ga("G", 5, 6)})
	m, pr := mustMaterializePlan(t, p, input)

	diff, stats, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("G", 1, 3)}})
	if err != nil || len(diff.Added)+len(diff.Removed) != 0 || !m.Output().Has(ga("G", 1, 3)) {
		t.Fatalf("derivation kept: diff %+v, err %v", diff, err)
	}
	// G(1,3) was an input fact of round 0: its proof A(1,2), G(2,3) is not
	// older, so it is over-deleted and comes back with a stamp above it.
	if stats.Overdeleted != 1 || stats.Rederived != 1 {
		t.Fatalf("overdeleted/rederived = %d/%d, want 1/1", stats.Overdeleted, stats.Rederived)
	}
	checkStamps(t, m, pr, 0)

	applyOrFatal(t, m, Delta{Assert: []ast.GroundAtom{ga("G", 1, 3)}})
	diff = applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("G", 1, 3), ga("A", 2, 3), ga("G", 5, 6)}})
	want := []ast.GroundAtom{ga("A", 2, 3), ga("G", 1, 3), ga("G", 2, 3), ga("G", 5, 6)}
	if !slices.EqualFunc(diff.Removed, want, func(a, b ast.GroundAtom) bool { return compareFacts(a, b) == 0 }) || len(diff.Added) != 0 {
		t.Fatalf("derivation lost in the same batch: diff %+v, want %v removed", diff, want)
	}
	checkStamps(t, m, pr, 1)
}

// TestMaintainApplyCancelledLeavesSetsReusable: the working sets live as long
// as the view and are emptied as they are taken, so an Apply cut at any poll
// leaves the view on its snapshot and the next Apply unaffected — also when the
// cut batch introduced a predicate at an arity the next one contradicts.
func TestMaintainApplyCancelledLeavesSetsReusable(t *testing.T) {
	p := workload.TransitiveClosureLinear()
	m := mustMaterialize(t, p, workload.Chain("A", 12))
	before := canonFacts(m.Output())
	cut := Delta{Retract: []ast.GroundAtom{ga("A", 5, 6)}, Assert: []ast.GroundAtom{ga("E", 1, 2)}}
	for trip := 2; ; trip++ {
		_, _, err := m.Apply(&tripCtx{Context: context.Background(), trip: trip}, cut)
		if err == nil {
			if trip < 5 {
				t.Fatalf("the batch finished within %d polls: nothing was cut mid-way", trip)
			}
			break
		}
		if !errors.Is(err, ErrCanceled) || canonFacts(m.Output()) != before {
			t.Fatalf("trip %d: err %v, view changed %v", trip, err, canonFacts(m.Output()) != before)
		}
		m2 := mustMaterialize(t, p, m.Input())
		m2.staged = m.staged // the cut Apply's leftovers, E/2 in the batch's scratch set included
		applyOrFatal(t, m2, Delta{Retract: []ast.GroundAtom{ga("A", 3, 4)}, Assert: []ast.GroundAtom{ga("E", 1, 2, 3)}})
		if got, want := canonFacts(m2.Output()), canonFacts(MustEval(p, m2.Input())); got != want {
			t.Fatalf("trip %d: the Apply after a cut one diverged:\n%s\nwant:\n%s", trip, got, want)
		}
	}
}

// checkStamps asserts the stamp invariant of maintain.go's header: every fact
// of a recursive unit that is not an input fact has a firing, valid in the
// output, whose premises of the unit's own predicates are stamped strictly
// below it.
func checkStamps(t *testing.T, m *Maintained, pr *Prepared, step int) {
	t.Helper()
	out, in, rules := m.Output(), m.Input(), pr.Program().Rules
	stampOf := func(g ast.GroundAtom) int32 {
		id, ok := out.Relation(g.Pred).LookupID(g.Args)
		if !ok {
			t.Fatalf("step %d: premise %v of a valid firing is not in the output", step, g)
		}
		return out.Relation(g.Pred).RoundOf(int(id))
	}
	for _, u := range m.units {
		if u.streamable {
			continue
		}
		for pred := range u.dynamic {
			rel := out.Relation(pred)
			for i := 0; rel != nil && i < rel.Len(); i++ {
				f := ast.GroundAtom{Pred: pred, Args: rel.Tuple(i)}
				if !rel.Alive(i) || in.Has(f) {
					continue
				}
				certified := false
				var stats Stats
				pr.Firings(out, f, out.Round(), &stats, func(rule int, vals []ast.Const) bool {
					b := make(ast.Binding)
					for k, v := range ast.VarsOfAtoms(rules[rule].Body) {
						b[v] = vals[k]
					}
					certified = true
					for _, a := range rules[rule].Body {
						if u.dynamic[a.Pred] && stampOf(a.MustGround(b)) >= rel.RoundOf(i) {
							certified = false
						}
					}
					return !certified
				})
				if !certified {
					t.Fatalf("step %d: %v (round %d) has no firing over older facts of its unit", step, f, rel.RoundOf(i))
				}
			}
		}
	}
}

// TestMaintainedStampsCertify pins the one place a batch commits facts of a
// unit in two steps: R(1,2) loses its edge, is over-deleted and restored
// through R(1,4); R(1,3) is staged, enabled by Bad(2) going, and rests on
// the restored R(1,2) — so it must be stamped a round above it. The oracle
// streams check the same invariant after every batch.
func TestMaintainedStampsCertify(t *testing.T) {
	c := maintPrograms(t)["negrec"]
	input := db.FromFacts([]ast.GroundAtom{
		ga("E", 1, 2), ga("E", 2, 3), ga("E", 1, 4), ga("E", 4, 2), ga("Mark", 2),
	})
	m, pr := mustMaterializePlan(t, c.p, input)
	if m.Output().Has(ga("R", 1, 3)) {
		t.Fatal("R(1,3) derived through the marked node")
	}
	checkStamps(t, m, pr, -1)
	_, stats, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("E", 1, 2), ga("Mark", 2)}})
	if err != nil || stats.Rederived != 1 || !m.Output().Has(ga("R", 1, 3)) {
		t.Fatalf("rederived %d, R(1,3) present %v, err %v", stats.Rederived, m.Output().Has(ga("R", 1, 3)), err)
	}
	checkStamps(t, m, pr, 0)
}

// TestMaintainDRedEnabledFiringIsNoSupport: R(1,5) loses its path through 7
// in the batch that unmarks node 3, which enables R(1,3), E(3,5) — over facts
// older than R(1,5), but not a firing of the old output, so nothing would
// re-check R(1,5) when R(1,3) is over-deleted two passes later. It must not
// count as support.
func TestMaintainDRedEnabledFiringIsNoSupport(t *testing.T) {
	p := maintPrograms(t)["negrec"].p
	input := db.FromFacts([]ast.GroundAtom{
		ga("E", 1, 6), ga("E", 6, 3), ga("E", 3, 5), ga("E", 1, 2), ga("E", 2, 7), ga("E", 7, 5), ga("Mark", 3),
	})
	m, pr := mustMaterializePlan(t, p, input)
	applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("E", 1, 6), ga("E", 7, 5), ga("Mark", 3)}})
	if got, want := canonFacts(m.Output()), canonFacts(MustEval(p, m.Input())); got != want {
		t.Fatalf("maintained view diverged:\n%s\nwant:\n%s", got, want)
	}
	checkStamps(t, m, pr, 0)
}

func TestMaintainStratifiedNegation(t *testing.T) {
	p := mustParseProgram(t, `
		Reach(x) :- S(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x)  :- N(x), !Reach(x).
	`)
	input := db.FromFacts([]ast.GroundAtom{
		ga("S", 0), ga("E", 0, 1),
		ga("N", 0), ga("N", 1), ga("N", 2),
	})
	m := mustMaterialize(t, p, input)
	if !m.Output().Has(ga("Dead", 2)) || m.Output().Has(ga("Dead", 1)) {
		t.Fatalf("bad initial view:\n%s", canonFacts(m.Output()))
	}

	// Asserting an edge below retracts a fact above: Dead(2) must go.
	diff := applyOrFatal(t, m, Delta{Assert: []ast.GroundAtom{ga("E", 1, 2)}})
	found := false
	for _, g := range diff.Removed {
		if g.Key() == ga("Dead", 2).Key() {
			found = true
		}
	}
	if !found || m.Output().Has(ga("Dead", 2)) {
		t.Fatalf("assertion below did not retract Dead(2): %+v", diff)
	}

	// Retracting below asserts above: cutting 0→1 revives Dead(1), Dead(2).
	diff = applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("E", 0, 1)}})
	ref := db.FromFacts([]ast.GroundAtom{
		ga("S", 0), ga("E", 1, 2), ga("N", 0), ga("N", 1), ga("N", 2),
	})
	if got, want := canonFacts(m.Output()), canonFacts(MustEval(p, ref)); got != want {
		t.Fatalf("after cut:\n%s\nwant:\n%s", got, want)
	}
	added := map[string]bool{}
	for _, g := range diff.Added {
		added[g.Key()] = true
	}
	if !added[ga("Dead", 1).Key()] || !added[ga("Dead", 2).Key()] {
		t.Fatalf("retraction below did not assert Dead facts: %+v", diff)
	}
}

func TestMaintainBatchSemantics(t *testing.T) {
	p := mustParseProgram(t, `P(x) :- E(x).`)
	input := db.FromFacts([]ast.GroundAtom{ga("E", 1)})
	m := mustMaterialize(t, p, input)

	// No-ops: retract absent, assert present, retract a derived-only fact.
	diff := applyOrFatal(t, m, Delta{
		Assert:  []ast.GroundAtom{ga("E", 1)},
		Retract: []ast.GroundAtom{ga("E", 9), ga("P", 1)},
	})
	if len(diff.Added)+len(diff.Removed) != 0 {
		t.Fatalf("no-op batch produced diff %+v", diff)
	}
	// Assert wins over retract of the same fact in one batch.
	diff = applyOrFatal(t, m, Delta{
		Assert:  []ast.GroundAtom{ga("E", 2)},
		Retract: []ast.GroundAtom{ga("E", 2)},
	})
	if !m.Output().Has(ga("P", 2)) || len(diff.Added) != 2 {
		t.Fatalf("assert-wins batch: %+v", diff)
	}
	// Arity mismatch is rejected before any mutation.
	if _, _, err := m.Apply(context.Background(), Delta{Assert: []ast.GroundAtom{ga("E", 1, 2)}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if !m.Output().Has(ga("P", 2)) {
		t.Fatal("failed Apply corrupted the view")
	}
}

// TestMaintainViewsSharePlans: maintenance variants are lowered once per
// schedule unit, so every view of one plan runs the same compiled pipelines.
func TestMaintainViewsSharePlans(t *testing.T) {
	p := mustParseProgram(t, `
		G(x, z) :- A(x, z).
		G(x, z) :- A(x, y), G(y, z).
		H(x) :- G(x, x).
		K(x) :- B(x).
	`)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	var views []*Maintained
	for range 2 {
		m, _, err := pr.Materialize(context.Background(), workload.Chain("A", 4))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, m)
	}
	planOf := func(m *Maintained, head string) *maintPlan { return m.units[m.owner[head]].maintPlan() }
	for _, head := range []string{"G", "H"} {
		base := planOf(views[0], head)
		if base == nil || len(base.rules) == 0 || base.rules[0].rederive == nil {
			t.Fatalf("%s: no maintenance plan", head)
		}
		for i, m := range views[1:] {
			if planOf(m, head) != base {
				t.Errorf("view %d lowered its own variants for %s", i+1, head)
			}
		}
	}
}

// unitOf returns the schedule unit of pr whose heads include pred.
func unitOf(pr *Prepared, pred string) *unit {
	for _, u := range pr.units {
		if u.dynamic[pred] {
			return u
		}
	}
	return nil
}

// TestMaintainSharedOrderMemo: two views of one plan, over tenants whose live
// sizes order CanRead's support check differently (Allows the smaller
// relation in one, HasRole in the other), apply their own streams at the same
// time. Both orders land in the one memo the views share, and each view
// equals a from-scratch evaluation after every batch.
func TestMaintainSharedOrderMemo(t *testing.T) {
	ctx := context.Background()
	pr, err := Prepare(workload.Authz())
	if err != nil {
		t.Fatal(err)
	}
	type lane struct {
		m       *Maintained
		batches []workload.Batch
	}
	var lanes []lane
	for i, sz := range []workload.AuthzSizes{
		{Users: 300, Groups: 12, Roles: 6, Docs: 40, DocsPerRole: 3},
		{Users: 10, Groups: 6, Roles: 4, Docs: 400, DocsPerRole: 100},
	} {
		tenant := workload.AuthzTenant(rand.New(rand.NewSource(int64(i+1))), sz)
		m, _, err := pr.Materialize(ctx, tenant)
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, lane{m, workload.AuthzChurn(rand.New(rand.NewSource(int64(i+7))), tenant, sz, 40)})
	}
	done := make(chan struct{})
	for i, l := range lanes {
		go func() {
			defer func() { done <- struct{}{} }()
			for k, b := range l.batches {
				if _, _, err := l.m.Apply(ctx, Delta{Assert: b.Assert, Retract: b.Retract}); err != nil {
					t.Errorf("view %d, batch %d: %v", i, k, err)
					return
				}
				if want, _, err := pr.Eval(l.m.Input()); err != nil || !want.Equal(l.m.Output()) {
					t.Errorf("view %d, batch %d: maintained output differs from a from-scratch evaluation (err %v)", i, k, err)
					return
				}
			}
		}()
	}
	for range lanes {
		<-done
	}
	memo := unitOf(pr, "CanRead").maintPlan().rules[0].sized
	var leads []string
	for _, lr := range memo.lowered {
		leads = append(leads, lr.plan.ops[1].pred)
	}
	if !slices.Contains(leads, "Allows") || !slices.Contains(leads, "HasRole") {
		t.Fatalf("the shared memo holds support-check orders probing %v first, want both Allows and HasRole", leads)
	}
}

// TestMaintainFiringsKeepStaticOrder: the support check runs a size-ordered
// rederive variant, proof read-back the static one. CanRead(1, 100) has three
// firings, which HasRole's insertion order lists 20, 21, 22 and Allows's 22,
// 21, 20; Allows is the smaller relation, so an Apply lowers the order that
// probes it first — and Prepared.Firings enumerates the same sequence, in the
// same slot order, before and after.
func TestMaintainFiringsKeepStaticOrder(t *testing.T) {
	in := db.New()
	for u := int64(1); u <= 40; u++ {
		in.Add(ga("Direct", u, 10))
	}
	for _, r := range []int64{20, 21, 22} {
		in.Add(ga("Grant", 10, r))
	}
	for _, r := range []int64{22, 21, 20} {
		in.Add(ga("Allows", r, 100))
	}
	pr, err := Prepare(workload.Authz())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.Materialize(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	fact := ga("CanRead", 1, 100)
	firings := func(out *db.Database) string {
		var sb strings.Builder
		var st Stats
		pr.Firings(out, fact, out.Round(), &st, func(rule int, vals []ast.Const) bool {
			fmt.Fprintf(&sb, "%d%v ", rule, vals)
			return true
		})
		return sb.String()
	}
	before := m.Output()
	want := firings(before)
	if want != "3[1 20 100] 3[1 21 100] 3[1 22 100] " {
		t.Fatalf("static read-back order %q", want)
	}
	applyOrFatal(t, m, Delta{Retract: []ast.GroundAtom{ga("Direct", 2, 10)}})
	rv := unitOf(pr, "CanRead").maintPlan().rules[0]
	if len(rv.sized.lowered) != 1 || rv.sized.lowered[0].plan.ops[1].pred != "Allows" || rv.rederive.ops[1].pred != "HasRole" {
		t.Fatal("the Apply did not lower a support-check order probing Allows before HasRole")
	}
	for name, out := range map[string]*db.Database{"old output": before, "new output": m.Output()} {
		if got := firings(out); got != want {
			t.Fatalf("%s: read-back after the Apply %q, before %q", name, got, want)
		}
	}
}

// predSchema collects the predicates of a program with their arities, split
// into extensional-or-any (all preds) for mutation sampling.
func predSchema(p *ast.Program) (preds []string, arity map[string]int) {
	arity = make(map[string]int)
	add := func(a ast.Atom) {
		if _, ok := arity[a.Pred]; !ok {
			arity[a.Pred] = len(a.Args)
			preds = append(preds, a.Pred)
		}
	}
	for _, r := range p.Rules {
		add(r.Head)
		for _, a := range r.Body {
			add(a)
		}
		for _, a := range r.NegBody {
			add(a)
		}
	}
	sort.Strings(preds)
	return preds, arity
}

// checkSupport asserts the support invariant of every unit: each fact of
// the unit's head predicates that is not an input fact has a firing valid in
// the maintained output, enumerated by the test oracle's binding-map matcher.
// For a non-recursive unit that is the whole of what keeps a fact; a
// recursive unit's firing must also be stamp-older (checkStamps).
func checkSupport(t *testing.T, m *Maintained, step int) {
	t.Helper()
	out, in := m.Output(), m.Input()
	for _, u := range m.units {
		derived := make(map[string]bool)
		for _, rm := range u.rules {
			oracleFire(out, rm.rule, db.AllRounds, func(h ast.GroundAtom) { derived[h.Key()] = true })
		}
		for pred := range u.dynamic {
			rel := out.Relation(pred)
			for i := 0; rel != nil && i < rel.Len(); i++ {
				if g := (ast.GroundAtom{Pred: pred, Args: rel.Tuple(i)}); rel.Alive(i) && !in.Has(g) && !derived[g.Key()] {
					t.Fatalf("step %d: %v is neither an input fact nor derived by a firing in the output", step, g)
				}
			}
		}
	}
}

// maintCase is one program of the maintenance oracle: base facts the input
// always starts with and scripted batches applied before the random ones.
type maintCase struct {
	p      *ast.Program
	base   []ast.GroundAtom
	script []Delta
}

// runMaintainStream drives one maintained view through the case's scripted
// batches and then a randomized mixed assert/retract stream, checking after
// every batch that the view is byte-identical to a from-scratch evaluation
// of the mutated input, that the returned diff is the exact set difference
// and that every fact keeps its support. A random batch holds 1 to maxBatch
// facts.
func runMaintainStream(t *testing.T, c maintCase, seed int64, domain, steps, maxBatch int) {
	t.Helper()
	p := c.p
	rng := rand.New(rand.NewSource(seed))
	preds, arity := predSchema(p)

	randFact := func() ast.GroundAtom {
		pred := preds[rng.Intn(len(preds))]
		args := make([]ast.Const, arity[pred])
		for i := range args {
			args[i] = ast.Const(rng.Intn(domain))
		}
		return ast.GroundAtom{Pred: pred, Args: args}
	}

	ref := db.New() // independent input oracle
	input := db.New()
	for _, g := range c.base {
		ref.Add(g)
		input.Add(g)
	}
	for i := 0; i < domain; i++ {
		g := randFact()
		ref.Add(g)
		input.Add(g)
	}
	m, pr := mustMaterializePlan(t, p, input)
	checkSupport(t, m, -1)

	for step := 0; step < len(c.script)+steps; step++ {
		var delta Delta
		if step < len(c.script) {
			delta = c.script[step]
		} else {
			for n := 1 + rng.Intn(maxBatch); n > 0; n-- {
				g := randFact()
				if rng.Intn(2) == 0 {
					delta.Assert = append(delta.Assert, g)
				} else {
					delta.Retract = append(delta.Retract, g)
				}
			}
		}
		inAssert := make(map[string]bool)
		for _, g := range delta.Assert {
			inAssert[g.Key()] = true
		}

		prev := make(map[string]bool)
		for _, g := range m.Output().Facts() {
			prev[g.Key()] = true
		}
		diff, _, err := m.Apply(context.Background(), delta)
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}

		// Mirror the batch semantics on the oracle input: assert wins.
		for _, g := range delta.Retract {
			if !inAssert[g.Key()] {
				ref.Remove(g)
			}
		}
		ref.Compact()
		for _, g := range delta.Assert {
			ref.Add(g)
		}

		want, _, err := Eval(p, ref)
		if err != nil {
			t.Fatalf("step %d: full eval: %v", step, err)
		}
		if got, wantS := canonFacts(m.Output()), canonFacts(want); got != wantS {
			t.Fatalf("step %d (seed %d): maintained view diverged from full re-evaluation\nbatch: %+v\ngot:\n%s\nwant:\n%s",
				step, seed, delta, got, wantS)
		}
		if got, wantS := canonFacts(m.Input()), canonFacts(ref); got != wantS {
			t.Fatalf("step %d: maintained input diverged\ngot:\n%s\nwant:\n%s", step, got, wantS)
		}
		checkSupport(t, m, step)
		checkStamps(t, m, pr, step)

		// Diff exactness: prev + Added - Removed == new, with Added fresh and
		// Removed previously present.
		for _, g := range diff.Added {
			if prev[g.Key()] {
				t.Fatalf("step %d: diff added pre-existing fact %v", step, g)
			}
			prev[g.Key()] = true
		}
		for _, g := range diff.Removed {
			if !prev[g.Key()] {
				t.Fatalf("step %d: diff removed absent fact %v", step, g)
			}
			delete(prev, g.Key())
		}
		now := make(map[string]bool)
		for _, g := range m.Output().Facts() {
			now[g.Key()] = true
			if !prev[g.Key()] {
				t.Fatalf("step %d: fact %v present but unaccounted by diff", step, g)
			}
		}
		if len(now) != len(prev) {
			t.Fatalf("step %d: diff accounts for %d facts, view has %d", step, len(prev), len(now))
		}
		for i := 1; i < len(diff.Added); i++ {
			if compareFacts(diff.Added[i-1], diff.Added[i]) >= 0 {
				t.Fatalf("step %d: Added not in canonical order", step)
			}
		}
		for i := 1; i < len(diff.Removed); i++ {
			if compareFacts(diff.Removed[i-1], diff.Removed[i]) >= 0 {
				t.Fatalf("step %d: Removed not in canonical order", step)
			}
		}
	}
}

// TestMaintainOracleGrid is the maintenance oracle: randomized mixed
// insert/delete streams, maintained output compared byte-for-byte against
// full re-evaluation, across GOMAXPROCS (w) × batch scale (s: a random batch
// holds up to 5·s facts), on recursive, non-recursive and stratified-negation
// programs. GOMAXPROCS must change nothing — the evaluator starts no
// goroutine. The rows keep the IDs of the grids that crossed them with the
// deleted shard count and with the deleted switch between derivation
// counting and DRed (dredfalse / dredtrue): both arms of a row now run the
// one algorithm, each on seeds of its own. The last three programs open with
// a batch where one firing is reachable from two changed facts, and the fact
// it derives keeps another support.
func TestMaintainOracleGrid(t *testing.T) {
	for name, c := range maintPrograms(t) {
		for _, cfg := range oracleGrid {
			t.Run(fmt.Sprintf("%s/w%d_s%d_%s", name, cfg.procs, cfg.scale, cfg.arm), func(t *testing.T) {
				withProcs(t, cfg.procs)
				// Small batches carry the long random tails: delete-rederive goes
				// wrong a few batches after the batch that mis-stamped a fact.
				seeds, steps := int64(3), 10
				if cfg.scale == 1 {
					seeds, steps = 8, 40
				}
				for seed := cfg.firstSeed; seed < cfg.firstSeed+seeds; seed++ {
					runMaintainStream(t, c, seed, 9, steps, 5*cfg.scale)
				}
			})
		}
	}
}

// oracleGrid is TestMaintainOracleGrid's rows: GOMAXPROCS, batch scale (a
// random batch holds up to 5·scale facts), arm name and first seed.
var oracleGrid = []struct {
	procs, scale int
	arm          string
	firstSeed    int64
}{
	{1, 1, "dredfalse", 0},
	{1, 1, "dredtrue", 100},
	{4, 4, "dredfalse", 0},
	{4, 4, "dredtrue", 100},
	{2, 1, "dredfalse", 200},
	{1, 4, "dredtrue", 200},
}

// FuzzMaintain is the maintenance oracle under fuzzed inputs: a program of
// maintPrograms (by index in name order), a seed and a batch bound choose
// the random stream runMaintainStream replays, checking every Apply's output
// and input against Eval, the stamps and support of the view, and the Diff's
// exactness and canonical order. The seed corpus is TestMaintainOracleGrid's
// rows, each program under each row's first seed and batch bound.
func FuzzMaintain(f *testing.F) {
	progs := maintPrograms(f)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	for row := range names {
		for _, cfg := range oracleGrid {
			f.Add(uint8(row), cfg.firstSeed, uint8(5*cfg.scale))
		}
	}
	f.Fuzz(func(t *testing.T, row uint8, seed int64, batch uint8) {
		runMaintainStream(t, progs[names[int(row)%len(names)]], seed, 9, 10, 1+int(batch)%20)
	})
}

// maintPrograms is the maintenance oracle's programs, by row name.
func maintPrograms(t testing.TB) map[string]maintCase {
	stratified := mustParseProgram(t, `
		Reach(x) :- S(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x)  :- N(x), !Reach(x).
		Pair(x, y) :- Dead(x), Dead(y).
	`)
	nonrec := mustParseProgram(t, `
		P(x, y) :- E(x, y).
		Q(x, z) :- P(x, y), E(y, z).
		R(x) :- Q(x, x).
	`)
	return map[string]maintCase{
		"tc":      {p: workload.TransitiveClosure()},
		"rltc":    {p: workload.TransitiveClosureLinear()},
		"samegen": {p: workload.SameGeneration()},
		// Mutual recursion: one unit, two head predicates.
		"evenodd": {p: mustParseProgram(t, `
			Even(x, y) :- Z(x, y).
			Odd(x, z)  :- Even(x, y), E(y, z).
			Even(x, z) :- Odd(x, y), E(y, z).
		`)},
		// A recursive unit whose rules negate a recursive stratum below: a
		// removal below enables firings above, an addition below invalidates them.
		"negrec": {p: mustParseProgram(t, `
			Bad(x) :- Mark(x).
			Bad(y) :- Bad(x), F(x, y).
			R(x, y) :- E(x, y).
			R(x, z) :- R(x, y), E(y, z), !Bad(y).
		`)},
		"nonrec":     {p: nonrec},
		"stratified": {p: stratified},
		// A repeated body atom: the lost firing (1, 2) matches the retracted
		// fact at both positions; D(1) keeps the firing (1, 3).
		"repeat": {
			p:      mustParseProgram(t, `D(x) :- E(x, y), E(x, y).`),
			base:   []ast.GroundAtom{ga("E", 1, 2), ga("E", 1, 3)},
			script: []Delta{{Retract: []ast.GroundAtom{ga("E", 1, 2)}}},
		},
		// A self-join: E(1, 1) sits at both positions of the firing (1, 1, 1);
		// Q(1, 1) keeps the firing (1, 3, 1).
		"selfjoin": {
			p:      mustParseProgram(t, `Q(x, z) :- E(x, y), E(y, z).`),
			base:   []ast.GroundAtom{ga("E", 1, 1), ga("E", 1, 3), ga("E", 3, 1)},
			script: []Delta{{Retract: []ast.GroundAtom{ga("E", 1, 1)}}},
		},
		// One batch removes the firing's positive support and adds its
		// negated fact; Dead(1) stays, as an input fact.
		"negflip": {
			p: mustParseProgram(t, `
				Reach(x) :- S(x).
				Dead(x)  :- N(x), !Reach(x).
			`),
			base:   []ast.GroundAtom{ga("N", 1), ga("Dead", 1)},
			script: []Delta{{Retract: []ast.GroundAtom{ga("N", 1)}, Assert: []ast.GroundAtom{ga("S", 1)}}},
		},
	}
}

// TestDeltaNet pins the one batch normalisation Maintained.Apply and the
// service's /facts share.
func TestDeltaNet(t *testing.T) {
	prev := db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 2, 3), ga("B", 7)})
	net := Delta{
		Assert:  []ast.GroundAtom{ga("A", 9, 9), ga("A", 1, 2), ga("A", 9, 9), ga("A", 2, 3), ga("C", 1)},
		Retract: []ast.GroundAtom{ga("A", 2, 3), ga("B", 7), ga("B", 7), ga("B", 8), ga("A", 9, 9)},
	}.Net(prev)
	want := Delta{
		Assert:  []ast.GroundAtom{ga("A", 9, 9), ga("C", 1)}, // present facts and the repeat dropped, batch order kept
		Retract: []ast.GroundAtom{ga("B", 7)},                // assert wins for A(2,3) and A(9,9); B(8) is absent
	}
	same := func(a, b []ast.GroundAtom) bool {
		return slices.EqualFunc(a, b, func(x, y ast.GroundAtom) bool { return compareFacts(x, y) == 0 })
	}
	if !same(net.Assert, want.Assert) || !same(net.Retract, want.Retract) {
		t.Fatalf("Net = %+v, want %+v", net, want)
	}
	if !(Delta{Retract: []ast.GroundAtom{ga("B", 8)}}).Net(prev).Empty() {
		t.Fatal("retracting an absent fact is not a no-op")
	}

	// A retract of a predicate prev lacks may disagree in arity with the
	// assert that introduces it (CheckArities checks each half on its own):
	// it is a no-op, and must not meet the assert in the scratch set.
	cross := Delta{
		Assert:  []ast.GroundAtom{ga("E", 1, 2)},
		Retract: []ast.GroundAtom{ga("E", 1, 2, 3)},
	}
	if err := cross.CheckArities(prev); err != nil {
		t.Fatalf("CheckArities rejected a no-op retract: %v", err)
	}
	net = cross.Net(prev)
	if !same(net.Assert, cross.Assert) || len(net.Retract) != 0 {
		t.Fatalf("Net = %+v, want the assert alone", net)
	}
}

// TestMaintainApplyCrossHalfArity drives the same batch through a view: neither the
// input nor the output has E yet, so the E/3 retract is a no-op and the E/2
// assert lands.
func TestMaintainApplyCrossHalfArity(t *testing.T) {
	p := mustParseProgram(t, `P(x, y) :- A(x, y).`)
	m := mustMaterialize(t, p, db.FromFacts([]ast.GroundAtom{ga("A", 1, 2)}))
	diff, _, err := m.Apply(context.Background(), Delta{
		Assert:  []ast.GroundAtom{ga("E", 1, 2)},
		Retract: []ast.GroundAtom{ga("E", 1, 2, 3)},
	})
	if err != nil || len(diff.Added) != 1 || len(diff.Removed) != 0 || !m.Output().Has(ga("E", 1, 2)) {
		t.Fatalf("diff %+v, err %v", diff, err)
	}
}

// TestMaintainApplyCopiesBatchNotRelation: small batches against a large
// maintained relation must cost the store copies in proportion to what the
// batches wrote — the versions share the big segment — and TuplesCopied is
// the counter that shows it.
func TestMaintainApplyCopiesBatchNotRelation(t *testing.T) {
	p := mustParseProgram(t, `P(x, y) :- A(x, y).`)
	const n = 20_000
	input := db.New()
	for i := int64(0); i < n; i++ {
		input.Add(ga("A", i, i+1))
	}
	m := mustMaterialize(t, p, input)
	total := 0
	for b := int64(0); b < 10; b++ {
		delta := Delta{
			Assert:  []ast.GroundAtom{ga("A", n+2*b, 0), ga("A", n+2*b+1, 0)},
			Retract: []ast.GroundAtom{ga("A", 2*b, 2*b+1), ga("A", 2*b+1, 2*b+2)},
		}
		diff, stats, err := m.Apply(context.Background(), delta)
		if err != nil || len(diff.Added) != 4 || len(diff.Removed) != 4 {
			t.Fatalf("batch %d: diff %+v, err %v", b, diff, err)
		}
		// Each version's tail holds what the earlier batches asserted: 2 facts
		// per batch on each of A (input), A and P (output).
		if limit := 3 * 2 * int(b+1); stats.TuplesCopied > limit {
			t.Fatalf("batch %d copied %d tuples (limit %d) on %d-tuple relations", b, stats.TuplesCopied, limit, n)
		}
		total += stats.TuplesCopied
	}
	if total == 0 {
		t.Fatal("TuplesCopied never moved: ten batches copied no tail")
	}
	if out, _, err := Eval(p, m.Input()); err != nil || !out.Equal(m.Output()) {
		t.Fatalf("maintained view differs from a from-scratch evaluation (err %v)", err)
	}
}

// TestMaterializeSkipsDeadInputTuples: an input relation may carry dead
// tuples (the store compacts lazily); one whose value was asserted again is
// one input fact, and retracting it leaves no dead copy behind as support.
func TestMaterializeSkipsDeadInputTuples(t *testing.T) {
	p := mustParseProgram(t, `P(x, y) :- A(x, y).`)
	input := db.New()
	for i := int64(0); i < 64; i++ {
		input.Add(ga("P", i, i))
	}
	w := input.Freeze().Thaw()
	w.Remove(ga("P", 3, 3))
	w.Add(ga("P", 3, 3))
	if rel := w.Relation("P"); rel.Dead() != 1 {
		t.Fatalf("dead = %d: the input no longer carries the dead copy this test is about", rel.Dead())
	}
	m := mustMaterialize(t, p, w)
	diff, _, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("P", 3, 3)}})
	if err != nil || len(diff.Removed) != 1 || m.Output().Has(ga("P", 3, 3)) {
		t.Fatalf("retracting the only support of P(3, 3): diff %+v, err %v, still present %v", diff, err, m.Output().Has(ga("P", 3, 3)))
	}
}

// TestMaintainFreezeSkipsUntouchedRelations: an Apply batch that writes one
// predicate of a wide schema must re-freeze only the relations the batch (and
// its derived deltas) touched; the skip counter proves the untouched
// relations rode through on shared storage.
func TestMaintainFreezeSkipsUntouchedRelations(t *testing.T) {
	p := mustParseProgram(t, `
		PA(x, y) :- A(x, y).
		PB(x, y) :- B(x, y).
		PC(x, y) :- C(x, y).
		PD(x, y) :- D(x, y).
	`)
	input := db.New()
	for i, pred := range []string{"A", "B", "C", "D"} {
		input.Add(ga(pred, int64(i), int64(i)+1))
	}
	m := mustMaterialize(t, p, input)

	diff, stats, err := m.Apply(context.Background(), Delta{Assert: []ast.GroundAtom{ga("A", 10, 11)}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(diff.Added) != 2 {
		t.Fatalf("diff = %+v, want the A fact plus its PA derivation", diff)
	}
	if stats.FreezeSkipped == 0 {
		t.Fatalf("FreezeSkipped = 0: untouched relations were re-frozen (RelationsFrozen=%d)", stats.RelationsFrozen)
	}
	if stats.RelationsFrozen == 0 || stats.RelationsFrozen > 3 {
		t.Fatalf("RelationsFrozen = %d, want 1..3 (A on the input side, PA and support on the output side)", stats.RelationsFrozen)
	}
	// The two counters partition the relations of both frozen databases.
	total := m.Input().RelationCount() + m.Output().RelationCount()
	if stats.RelationsFrozen+stats.FreezeSkipped != total {
		t.Fatalf("frozen %d + skipped %d != %d total relations", stats.RelationsFrozen, stats.FreezeSkipped, total)
	}

	// A no-op batch (retracting an absent fact) short-circuits before any
	// re-freeze: neither counter moves.
	_, stats2, err := m.Apply(context.Background(), Delta{Retract: []ast.GroundAtom{ga("D", 99, 99)}})
	if err != nil {
		t.Fatalf("apply noop: %v", err)
	}
	if stats2.RelationsFrozen != 0 || stats2.FreezeSkipped != 0 {
		t.Fatalf("no-op batch counted frozen=%d skipped=%d, want 0/0", stats2.RelationsFrozen, stats2.FreezeSkipped)
	}
}
