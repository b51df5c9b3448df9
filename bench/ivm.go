package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// Workload `ivm-churn`: writes beside reads. One goroutine materializes two
// views and applies seeded mutation batches to them — four-fact mixed
// assert/retract batches on an authorization program at 2,000 users and 48
// groups (counting for the non-recursive strata, delete-rederive for group
// membership), interleaved with single-edge retract / re-assert batches on
// a right-linear transitive closure (delete-rederive with a heavy tail).
// After every batch it reads the view: the frozen output, its size, two
// membership probes. It uses the store and the evaluator as `eval-bulk`
// does, but through Remove, tombstones, Compact, Thaw → Freeze, delta
// rules and rederivation: a kernel or store change that buys bulk speed by
// making mutation, compaction or snapshotting dearer shows here only.

// Frozen batch counts per second of --seconds, and input sizes.
const (
	ivmAuthzBatchesPerSecond = 150
	ivmTCBatchesPerSecond    = 8
	ivmTCNodes, ivmTCEdges   = 500, 750
	ivmTCChurnEdges          = 60  // the fixed edge subset the TC batches cycle through
	ivmCheckEvery            = 200 // batches between untimed from-scratch comparisons
)

var ivmAuthzSizes = authzSizes{users: 2000, groups: 48, roles: 16, docs: 240, docsPerRole: 12}

const authzSource = `
Member(u, g) :- Direct(u, g).
Member(u, g) :- Member(u, h), Subgroup(h, g).
HasRole(u, r) :- Member(u, g), Grant(g, r).
CanRead(u, d) :- HasRole(u, r), Allows(r, d).
`

// authzModel is the direct Go model of the authorization program: the
// oracle recomputes CanRead from the current base facts.
type authzModel struct {
	// user, group, role and doc map a structural index to its seeded label;
	// the four kinds live in disjoint ranges of one integer space.
	user, group, role, doc []int64

	direct   factTable // Direct(u, g)
	subgroup factTable // Subgroup(h, g): members of h are members of g
	grant    factTable // Grant(g, r)
	allows   factTable // Allows(r, d)
}

// factTable is a set of binary facts with O(1) random pick and removal.
type factTable struct {
	pred string
	rows [][2]int64
	at   map[[2]int64]int
}

func newFactTable(pred string) factTable {
	return factTable{pred: pred, at: make(map[[2]int64]int)}
}

func (t *factTable) has(r [2]int64) bool { _, ok := t.at[r]; return ok }

func (t *factTable) add(r [2]int64) bool {
	if t.has(r) {
		return false
	}
	t.at[r] = len(t.rows)
	t.rows = append(t.rows, r)
	return true
}

func (t *factTable) remove(r [2]int64) bool {
	i, ok := t.at[r]
	if !ok {
		return false
	}
	last := t.rows[len(t.rows)-1]
	t.rows[i] = last
	t.at[last] = i
	t.rows = t.rows[:len(t.rows)-1]
	delete(t.at, r)
	return true
}

func (t *factTable) facts() []fact {
	out := make([]fact, len(t.rows))
	for i, r := range t.rows {
		out[i] = fact{t.pred, []int64{r[0], r[1]}}
	}
	return out
}

// authzSizes are the dimensions of one authorization tenant.
type authzSizes struct{ users, groups, roles, docs, docsPerRole int }

// newAuthzModel builds a tenant: every user directly in one or two groups,
// a three-ary forest of subgroups, one or two roles per group, a slice of
// the documents per role. sg fixes the shape, rg the labels.
func newAuthzModel(sg, rg *rng, sz authzSizes) *authzModel {
	labels := func(base int64, n int) []int64 {
		out := make([]int64, n)
		for i, p := range rg.perm(n) {
			out[i] = base + int64(p)
		}
		return out
	}
	m := &authzModel{
		user: labels(100000, sz.users), group: labels(1000, sz.groups),
		role: labels(2000, sz.roles), doc: labels(10000, sz.docs),
		direct: newFactTable("Direct"), subgroup: newFactTable("Subgroup"),
		grant: newFactTable("Grant"), allows: newFactTable("Allows")}
	for u := range m.user {
		for k := 0; k <= sg.intn(2); k++ {
			m.direct.add([2]int64{m.user[u], m.group[sg.intn(sz.groups)]})
		}
	}
	for g := 1; g < sz.groups; g++ {
		m.subgroup.add([2]int64{m.group[g], m.group[(g-1)/3]})
	}
	for g := range m.group {
		for k := 0; k <= sg.intn(2); k++ {
			m.grant.add([2]int64{m.group[g], m.role[sg.intn(sz.roles)]})
		}
	}
	for r := range m.role {
		for k := 0; k < sz.docsPerRole; k++ {
			m.allows.add([2]int64{m.role[r], m.doc[sg.intn(sz.docs)]})
		}
	}
	return m
}

func (m *authzModel) facts() []fact {
	var fs []fact
	for _, t := range []*factTable{&m.direct, &m.subgroup, &m.grant, &m.allows} {
		fs = append(fs, t.facts()...)
	}
	return fs
}

// derive recomputes the model from the base facts: per user, the groups
// (closure over Subgroup), the roles those groups grant and the documents
// those roles allow — Member, HasRole and CanRead.
func (m *authzModel) derive() (member, hasRole, canRead map[int64]map[int64]bool) {
	index := func(t *factTable) map[int64][]int64 {
		out := make(map[int64][]int64)
		for _, r := range t.rows {
			out[r[0]] = append(out[r[0]], r[1])
		}
		return out
	}
	parents, rolesOf, docsOf, groupsOf := index(&m.subgroup), index(&m.grant), index(&m.allows), index(&m.direct)
	member = make(map[int64]map[int64]bool, len(groupsOf))
	hasRole = make(map[int64]map[int64]bool, len(groupsOf))
	canRead = make(map[int64]map[int64]bool, len(groupsOf))
	for u, gs := range groupsOf {
		groups, roles, docs := make(map[int64]bool), make(map[int64]bool), make(map[int64]bool)
		stack := append([]int64(nil), gs...)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if groups[g] {
				continue
			}
			groups[g] = true
			stack = append(stack, parents[g]...)
			for _, r := range rolesOf[g] {
				roles[r] = true
				for _, d := range docsOf[r] {
					docs[d] = true
				}
			}
		}
		member[u], hasRole[u], canRead[u] = groups, roles, docs
	}
	return member, hasRole, canRead
}

func (m *authzModel) canReadDigest() digest {
	var d digest
	_, _, canRead := m.derive()
	for u, docs := range canRead {
		for doc := range docs {
			d.add("CanRead", u, doc)
		}
	}
	return d
}

// mutation picks one toggle: retract an existing fact of a table or assert
// a fresh one, keeping table sizes roughly where they started. rg is a
// structural stream: every seed toggles the same facts up to labels.
func (m *authzModel) mutation(rg *rng, retract bool) (fact, bool) {
	var t *factTable
	var fresh func() [2]int64
	// Membership changes dominate, as they do in a live directory; a grant or
	// an ACL change fans out to every transitive member and is rarer.
	switch k := rg.intn(8); {
	case k < 6:
		t = &m.direct
		fresh = func() [2]int64 {
			return [2]int64{m.user[rg.intn(len(m.user))], m.group[rg.intn(len(m.group))]}
		}
	case k == 6:
		t = &m.grant
		fresh = func() [2]int64 {
			return [2]int64{m.group[rg.intn(len(m.group))], m.role[rg.intn(len(m.role))]}
		}
	default:
		t = &m.allows
		fresh = func() [2]int64 {
			return [2]int64{m.role[rg.intn(len(m.role))], m.doc[rg.intn(len(m.doc))]}
		}
	}
	if retract {
		if len(t.rows) == 0 {
			return fact{}, false
		}
		r := t.rows[rg.intn(len(t.rows))]
		t.remove(r)
		return fact{t.pred, []int64{r[0], r[1]}}, true
	}
	for try := 0; try < 8; try++ {
		if r := fresh(); t.add(r) {
			return fact{t.pred, []int64{r[0], r[1]}}, true
		}
	}
	return fact{}, false
}

// ivmBatch is one mutation batch against one of the two views.
type ivmBatch struct {
	tc      bool
	assert  []fact
	retract []fact
}

func (b ivmBatch) delta() core.DatabaseDelta {
	return core.DatabaseDelta{Assert: toCoreFacts(b.assert), Retract: toCoreFacts(b.retract)}
}

// ivmState is the two maintained views with their models.
type ivmState struct {
	authz     *authzModel
	authzSess *core.Session
	authzView *core.View

	tcEdges map[edge]bool
	tcSess  *core.Session
	tcView  *core.View
	churn   []edge // the edges the TC batches retract and re-assert
}

func ivmSetup(seed uint64) (*ivmState, error) {
	ctx := context.Background()
	sg, rg := newRNG(structSeed, "ivm"), newRNG(seed, "ivm")
	st := &ivmState{authz: newAuthzModel(sg, rg, ivmAuthzSizes)}

	open := func(src string, fs []fact) (*core.Session, *core.View, error) {
		p, err := core.ParseProgram(src)
		if err != nil {
			return nil, nil, err
		}
		sess, err := core.NewSession(p)
		if err != nil {
			return nil, nil, err
		}
		view, _, err := sess.Materialize(ctx, core.FromFacts(toCoreFacts(fs)), core.MaintainOptions{})
		return sess, view, err
	}
	var err error
	if st.authzSess, st.authzView, err = open(authzSource, st.authz.facts()); err != nil {
		return nil, err
	}
	es := relabel(randomDigraph(sg, ivmTCNodes, ivmTCEdges), rg.perm(ivmTCNodes), newRNG(structSeed, "ivm-order"))
	st.tcEdges = make(map[edge]bool, len(es))
	for _, e := range es {
		st.tcEdges[e] = true
	}
	// relabel above shuffles with a structural stream, so es[:k] is the same
	// structural edge subset for every seed, under seed-dependent labels.
	st.churn = es[:ivmTCChurnEdges]
	if st.tcSess, st.tcView, err = open(tcRightLinear().prog.String(), edgeFacts("A", es)); err != nil {
		return nil, err
	}
	return st, nil
}

// batches renders the interleaved batch sequence. The authz batches mutate
// the model as they are drawn, so the sequence must be applied in order.
func (st *ivmState) batches(nAuthz, nTC int) []ivmBatch {
	// The sequence is structural: every seed toggles the same facts and
	// retracts the same edges at the same points, under its own labels.
	rg := newRNG(structSeed, "ivm-batches")
	order := rg.perm(len(st.churn))
	out := make([]ivmBatch, 0, nAuthz+nTC)
	tcDone := 0
	for i := 0; i < nAuthz; i++ {
		var b ivmBatch
		for k := 0; k < 4; k++ {
			if f, ok := st.authz.mutation(rg, k%2 == 0); ok {
				if k%2 == 0 {
					b.retract = append(b.retract, f)
				} else {
					b.assert = append(b.assert, f)
				}
			}
		}
		out = append(out, b)
		// Spread the TC batches evenly through the authz stream.
		for tcDone < nTC && (tcDone+1)*nAuthz <= (i+1)*nTC {
			e := st.churn[order[(tcDone/2)%len(order)]]
			f := []fact{{"A", []int64{int64(e.from), int64(e.to)}}}
			if tcDone%2 == 0 {
				out = append(out, ivmBatch{tc: true, retract: f})
			} else {
				out = append(out, ivmBatch{tc: true, assert: f})
			}
			tcDone++
		}
	}
	return out
}

// ivmTotals is what one pass over the batches measures.
type ivmTotals struct {
	m          *measured
	applyAuthz []float64
	applyTC    []float64
	reeval     []float64 // from-scratch Session.Eval of the authz input, untimed checks
	allocBytes uint64
	stats      core.EvalStats
}

// runIVMPass applies the batches in order, reading the view after each,
// and every ivmCheckEvery batches compares both views, untimed, with a
// from-scratch evaluation and with the models.
func (st *ivmState) runPass(batches []ivmBatch, replay *authzModel, lane *speedLane, tr *tracer, res *runResult) ivmTotals {
	ctx := context.Background()
	tot := ivmTotals{m: newMeasured(lane.s, 1, len(batches))}
	probe := toCoreFact(fact{"CanRead", []int64{replay.user[0], replay.doc[0]}})
	probeTC := toCoreFact(fact{"G", []int64{0, 1}})
	for i, b := range batches {
		view, name, has := st.authzView, "authz", probe
		if b.tc {
			view, name, has = st.tcView, "tc", probeTC
		}
		delta := b.delta()
		lane.tick()
		a0 := totalAlloc()
		root := tr.begin(0, i+1, "bench", "op."+name)
		t0 := time.Now()
		h := tr.begin(0, i+1, "eval", "eval.maintain_apply."+name)
		_, stats, err := view.Apply(ctx, delta)
		tr.end(h)
		applied := time.Since(t0)
		h = tr.begin(0, i+1, "db", "db.view_read")
		out := view.Output()
		n := out.Len()
		_ = out.Has(has)
		tr.end(h)
		d := time.Since(t0)
		tr.end(root)
		tot.allocBytes += totalAlloc() - a0
		tot.m.add(0, t0, d, true)
		if err != nil || n == 0 {
			res.fail("ivm-churn batch %d (%s): err=%v size=%d", i+1, name, err, n)
			continue
		}
		tot.stats.Applies += stats.Applies
		tot.stats.Overdeleted += stats.Overdeleted
		tot.stats.Rederived += stats.Rederived
		tot.stats.CountAdjusted += stats.CountAdjusted
		if b.tc {
			tot.applyTC = append(tot.applyTC, applied.Seconds())
			e := edge{int(b.assert0().args[0]), int(b.assert0().args[1])}
			if len(b.assert) > 0 {
				st.tcEdges[e] = true
			} else {
				delete(st.tcEdges, e)
			}
		} else {
			tot.applyAuthz = append(tot.applyAuthz, applied.Seconds())
			for _, f := range b.retract {
				replay.table(f.pred).remove([2]int64{f.args[0], f.args[1]})
			}
			for _, f := range b.assert {
				replay.table(f.pred).add([2]int64{f.args[0], f.args[1]})
			}
		}
		if (i+1)%ivmCheckEvery == 0 || i == len(batches)-1 {
			tot.reeval = append(tot.reeval, st.check(replay, res, i+1))
		}
	}
	return tot
}

// assert0 is the batch's single fact (TC batches carry exactly one).
func (b ivmBatch) assert0() fact {
	if len(b.assert) > 0 {
		return b.assert[0]
	}
	return b.retract[0]
}

func (m *authzModel) table(pred string) *factTable {
	switch pred {
	case "Direct":
		return &m.direct
	case "Subgroup":
		return &m.subgroup
	case "Grant":
		return &m.grant
	}
	return &m.allows
}

// check compares both maintained views with a from-scratch evaluation of
// their current input (engine against engine) and with the Go models
// (engine against oracle). It returns the authz from-scratch time.
func (st *ivmState) check(replay *authzModel, res *runResult, at int) float64 {
	ctx := context.Background()
	t0 := time.Now()
	scratch, _, err := st.authzSess.Eval(ctx, st.authzView.Input())
	reeval := time.Since(t0).Seconds()
	if err != nil || !scratch.Equal(st.authzView.Output()) {
		res.fail("ivm-churn batch %d: maintained authz view differs from a from-scratch evaluation (err=%v)", at, err)
	}
	if got, want := digestDB(st.authzView.Output(), func(p string) bool { return p == "CanRead" }), replay.canReadDigest(); got != want {
		res.fail("ivm-churn batch %d: CanRead digest %v, model %v", at, got, want)
	}
	scratch, _, err = st.tcSess.Eval(ctx, st.tcView.Input())
	if err != nil || !scratch.Equal(st.tcView.Output()) {
		res.fail("ivm-churn batch %d: maintained closure differs from a from-scratch evaluation (err=%v)", at, err)
	}
	es := make([]edge, 0, len(st.tcEdges))
	for e := range st.tcEdges {
		es = append(es, e)
	}
	if got, want := digestDB(st.tcView.Output(), func(p string) bool { return p == "G" }), closureDigest("G", ivmTCNodes, es); got != want {
		res.fail("ivm-churn batch %d: closure digest %v, BFS %v", at, got, want)
	}
	return reeval
}

func runIVMChurn(cfg config, spec *benchSpec) (*runResult, error) {
	res := newResult(spec, cfg)
	nAuthz := max(40, int(cfg.seconds*ivmAuthzBatchesPerSecond))
	nTC := max(4, int(cfg.seconds*ivmTCBatchesPerSecond)) &^ 1 // retract / re-assert pairs
	if cfg.trace {
		nAuthz, nTC = nAuthz/2, (nTC/2)&^1
	}
	lane := newSpeedometer().lane()
	baseline := heapLive()

	pass := func(tr *tracer) (ivmTotals, *ivmState, float64, error) {
		var st *ivmState
		var batches []ivmBatch
		var replay *authzModel
		setup, err := medianSetup(cfg.setupReps(), lane, func(rep int) error {
			var err error
			if st, err = ivmSetup(cfg.seed); err != nil {
				return err
			}
			// The replay model tracks the view batch by batch; st.authz runs
			// ahead while the sequence is drawn.
			sg, rg := newRNG(structSeed, "ivm"), newRNG(cfg.seed, "ivm")
			replay = newAuthzModel(sg, rg, ivmAuthzSizes)
			// Warm-up: the first twentieth of a longer sequence is applied
			// here, so delete paths and indexes exist before timing starts.
			all := st.batches(nAuthz+nAuthz/20, nTC+2)
			warm := len(all) - nAuthz - nTC
			var scratch runResult
			st.runPass(all[:warm], replay, lane, nil, &scratch)
			if scratch.Failed > 0 {
				return fmt.Errorf("warm-up: %s", scratch.Failures[0])
			}
			batches = all[warm:]
			return nil
		})
		if err != nil {
			return ivmTotals{}, nil, 0, err
		}
		var srcs []string
		for _, b := range batches {
			srcs = append(srcs, factsSource(b.assert), factsSource(b.retract))
		}
		res.Digests["ivm-churn.batches"] = sha(srcs...)
		runtime.GC()
		root := tr.begin(0, 0, "bench", "measured")
		tot := st.runPass(batches, replay, lane, tr, res)
		tr.end(root)
		res.Attempted += len(batches)
		return tot, st, setup, nil
	}

	tot, st, setup, err := pass(nil)
	if err != nil {
		return nil, err
	}
	live := liveSince(baseline) // both views, their inputs and sessions are still referenced
	liveFacts := st.authzView.Output().Len() + st.tcView.Output().Len()
	sec := tot.m.finish()
	res.setEndToEnd(setup, sec, live)
	res.Detail["batches_authz"] = nAuthz
	res.Detail["batches_tc"] = nTC
	res.Detail["bytes_per_fact"] = float64(live) / float64(liveFacts)
	res.Detail["raw_apply_p50_us_authz"] = median(tot.applyAuthz) * 1e6
	res.Detail["raw_apply_p50_us_tc"] = median(tot.applyTC) * 1e6
	res.Detail["raw_apply_p90_us_tc"] = percentile(tot.applyTC, 0.9) * 1e6
	res.Digests["ivm-churn.authz.output"] = sha(digestDB(st.authzView.Output(), nil).String())
	res.Digests["ivm-churn.tc.output"] = sha(digestDB(st.tcView.Output(), nil).String())

	if cfg.trace {
		st = nil
		tr := newTracer(lane.s)
		ttot, tst, _, err := pass(tr)
		if err != nil {
			return nil, err
		}
		res.set("bench.trace_overhead_share", ttot.m.finish().wall/sec.wall-1)
		res.setSpanMetrics(tr)
		res.set("eval.maintain_apply_us.authz", median(tr.durations("eval.maintain_apply.authz"))*1e6)
		res.set("eval.maintain_apply_us.tc", median(tr.durations("eval.maintain_apply.tc"))*1e6)
		res.set("eval.maintain_vs_reeval_ratio", ratio(median(ttot.applyAuthz), median(ttot.reeval)))
		res.set("eval.maintain_alloc_kb_per_batch", float64(ttot.allocBytes)/1024/float64(ttot.m.ops()))
		res.set("db.bytes_per_fact", float64(live)/float64(liveFacts))
		probeMutation(tst, res, lane.factorNow())
		if err := cfg.writeTrace(tr); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

// probeMutation times the store's write path on the authz input outside
// any view: thaw → retract + assert → compact → freeze, and compaction per
// tombstone.
func probeMutation(st *ivmState, res *runResult, factor float64) {
	input := st.authzView.Input()
	rows := st.authz.direct.rows
	var cycles []float64
	for i := 0; i < 20 && i+1 < len(rows); i++ {
		gone := toCoreFact(fact{"Direct", []int64{rows[i][0], rows[i][1]}})
		t0 := time.Now()
		w := input.Clone()
		w.Remove(gone)
		w.Compact()
		w.Add(gone)
		w.Freeze()
		cycles = append(cycles, time.Since(t0).Seconds())
	}
	res.set("db.thaw_mutate_freeze_us", median(cycles)*1e6/factor)

	w := input.Clone()
	dead := 0
	for i := 0; i < 400 && i < len(rows); i++ {
		if w.Remove(toCoreFact(fact{"Direct", []int64{rows[i][0], rows[i][1]}})) {
			dead++
		}
	}
	t0 := time.Now()
	w.Compact()
	res.set("db.compact_us_per_tombstone", ratio(time.Since(t0).Seconds()*1e6/factor, float64(dead)))
	if dead == 0 {
		res.fail("ivm-churn: compaction probe removed nothing")
	}
}
