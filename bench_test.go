// Benchmarks timing the experiment suite of DESIGN.md, one bench family
// per experiment table, each timing the ops its table defines (benchTable),
// plus the kernel benches and the ablation benches for the design choices
// DESIGN.md §5 calls out (the chase's termination ablation lives in
// internal/chase, beside the switch it flips). Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/equivopt"
	"repro/internal/eval"
	"repro/internal/explain"
	"repro/internal/harness"
	"repro/internal/magic"
	"repro/internal/minimize"
	"repro/internal/oracle/topdown"
	"repro/internal/parser"
	"repro/internal/workload"
)

// BenchmarkE1_WorkedExamples re-runs the complete worked-example regression
// of the paper (Examples 2–19).
func BenchmarkE1_WorkedExamples(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := harness.E1WorkedExamples()
		for _, row := range tab.Rows {
			if row[3] != "PASS" {
				b.Fatalf("%s failed", row[0])
			}
		}
	}
}

// benchTable times each op of an experiment table as a sub-benchmark of b,
// which must be the table's Bench family: the rows BENCH_eval.json records
// and EXPERIMENTS.md reads its time cells from. Building the table runs
// every op once, so a timed iteration finds what that run cached; an op with
// a Reset is restored before every iteration, outside the timer.
func benchTable(b *testing.B, t harness.Table) {
	if b.Name() != t.Bench {
		b.Fatalf("%s times %s's ops, whose family is %s", b.Name(), t.ID, t.Bench)
	}
	for _, op := range t.Ops {
		b.Run(op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if op.Reset != nil {
					b.StopTimer()
					op.Reset()
					b.StartTimer()
				}
				op.Run()
			}
		})
	}
}

func BenchmarkE2_UniformContainment(b *testing.B) { benchTable(b, harness.E2UniformContainment()) }
func BenchmarkE3_MinimizeRule(b *testing.B)       { benchTable(b, harness.E3MinimizeRule()) }
func BenchmarkE4_MinimizeProgram(b *testing.B)    { benchTable(b, harness.E4MinimizeProgram()) }
func BenchmarkE5_EvalSpeedup(b *testing.B)        { benchTable(b, harness.E5EvalSpeedup()) }
func BenchmarkE6_NaiveVsSemiNaive(b *testing.B)   { benchTable(b, harness.E6NaiveVsSemiNaive()) }
func BenchmarkE7_EquivOpt(b *testing.B)           { benchTable(b, harness.E7EquivOpt()) }
func BenchmarkE8_MagicComposition(b *testing.B)   { benchTable(b, harness.E8MagicComposition()) }
func BenchmarkE9_EmbeddedChase(b *testing.B)      { benchTable(b, harness.E9EmbeddedChase()) }
func BenchmarkE12_Incremental(b *testing.B)       { benchTable(b, harness.E12Incremental()) }
func BenchmarkE14_SIPS(b *testing.B)              { benchTable(b, harness.E14SIPS()) }

// BenchmarkAblation_DeletionOrder measures Fig. 2 under source order vs
// shuffled consideration order (the paper: results may differ; cost may
// too).
func BenchmarkAblation_DeletionOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	p := workload.InjectRedundantRules(workload.TransitiveClosure(), 4, rng)
	p = workload.InjectRedundantAtomsProgram(p, 2, rng)
	b.Run("source-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := minimize.Program(context.Background(), p, minimize.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shuffled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shuffleRng := rand.New(rand.NewSource(int64(i)))
			if _, _, err := minimize.Program(context.Background(), p, minimize.Options{Rand: shuffleRng}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_PrelimDepth measures the cost of probing deeper
// preliminary DBs in the Section X pipeline.
func BenchmarkAblation_PrelimDepth(b *testing.B) {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		H(x) :- G(x, y).
		R(x, z) :- A(x, q), B(x, z).
		R(x, z) :- R(x, y), B(y, z), H(x).
	`)
	for _, depth := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := equivopt.Optimize(context.Background(), p, equivopt.Options{PrelimDepth: depth}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplainProver measures what a proof costs on top of the
// evaluation it is read back from: plain evaluation against evaluation plus
// the derivation tree of the deepest fact (the chain's end-to-end pair, whose
// tree has every input edge as a leaf).
func BenchmarkExplainProver(b *testing.B) {
	p := workload.TransitiveClosure()
	for _, n := range []int{32, 256} {
		edb := workload.Chain("A", n)
		deepest := ast.NewGroundAtom("G", ast.Int(0), ast.Int(int64(n)))
		b.Run(fmt.Sprintf("n=%d/eval", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(p, edb); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/eval+explain", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr, err := explain.NewProver(p, edb)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := pr.Explain(deepest); !ok {
					b.Fatal("deepest fact not explained")
				}
			}
		})
	}
}

// BenchmarkEngines times E11's query engines and, beside them, the tabled
// top-down engine on the chain n=96 query. The tabled engine is a test
// oracle (internal/oracle/topdown), which nothing the harness links may
// import, so its arm is built here.
func BenchmarkEngines(b *testing.B) {
	benchTable(b, harness.E11Engines())
	p := workload.Ancestor()
	edb := workload.Chain("Par", 96)
	query := ast.NewAtom("Anc", ast.IntTerm(90), ast.Var("y"))
	b.Run("topdown-tabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := topdown.New(p, edb)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := eng.Query(query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalShapes records the kernel on six fixpoint shapes, one
// one-shot Eval per iteration:
//
//   - large-tc: right-linear transitive closure (the paper's Example 4) of a
//     10,000-node sparse random digraph — a deep recursion (~90 rounds) of
//     small per-round deltas, each walked delta-first.
//   - dense-tc: doubled-rule transitive closure of a dense random digraph —
//     duplicate-dominated (~159 re-derivations per committed fact), so bound
//     by the dedup probes.
//   - wide-join: a wide non-recursive join of 900-row relations, one pass.
//   - sparse-tc, same-gen, wide-join-4k: three of the shapes of bench/'s
//     eval-bulk workload at its sizes — right-linear TC over 2,500 nodes /
//     2,800 edges, same-generation over a 3-ary tree of depth 5, a four-way
//     join of 4,000-row relations.
//
// Until PR 29 these were the rows of the sharded executor's ablation; DESIGN
// §5 records what its deletion gave up on them.
func BenchmarkEvalShapes(b *testing.B) {
	rltc := workload.TransitiveClosureLinear()
	tc := workload.TransitiveClosure()
	join := parser.MustParseProgram(`
		T(x, w) :- A(x, y), B(y, z), C(z, w), S(x).
	`)
	joinEDB := db.New()
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 900; i++ {
		joinEDB.Add(ast.GroundAtom{Pred: "A", Args: []ast.Const{ast.Int(int64(rng.Intn(60))), ast.Int(int64(rng.Intn(60)))}})
		joinEDB.Add(ast.GroundAtom{Pred: "B", Args: []ast.Const{ast.Int(int64(rng.Intn(60))), ast.Int(int64(rng.Intn(60)))}})
		joinEDB.Add(ast.GroundAtom{Pred: "C", Args: []ast.Const{ast.Int(int64(rng.Intn(60))), ast.Int(int64(rng.Intn(60)))}})
	}
	for i := int64(0); i < 12; i++ {
		joinEDB.Add(ast.GroundAtom{Pred: "S", Args: []ast.Const{ast.Int(i)}})
	}
	sgEDB := workload.Tree("Down", 3, 5)
	for _, f := range sgEDB.Facts() {
		sgEDB.Add(ast.GroundAtom{Pred: "Up", Args: []ast.Const{f.Args[1], f.Args[0]}})
	}
	sgEDB.Add(ast.GroundAtom{Pred: "Flat", Args: []ast.Const{ast.Int(0), ast.Int(0)}})
	join4 := parser.MustParseProgram(`
		W(a, e) :- R(a, b), S(b, c), T(c, d), U(d, e).
	`)
	join4EDB := db.New()
	for i, pred := range []string{"R", "S", "T", "U"} {
		for _, f := range workload.RandomDigraph(pred, 1000, 4000, int64(31+i)).Facts() {
			join4EDB.Add(f)
		}
	}
	for _, arm := range []struct {
		name string
		p    *ast.Program
		edb  *db.Database
	}{
		{"sparse-tc", rltc, workload.RandomDigraph("A", 2500, 2800, 7)},
		{"same-gen", workload.SameGeneration(), sgEDB},
		{"wide-join-4k", join4, join4EDB},
		{"large-tc", rltc, workload.RandomDigraph("A", 10000, 10500, 7)},
		{"dense-tc", tc, workload.RandomDigraph("A", 220, 500, 7)},
		{"wide-join", join, joinEDB},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(arm.p, arm.edb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorageKernel measures the db storage layer directly: the
// insert/dedup path (arena append + open-addressing table) and the
// index-probe path (hash probe + chain walk), the two operations every
// fixpoint round multiplies. Both must stay allocation-free per operation.
func BenchmarkStorageKernel(b *testing.B) {
	const n = 10000
	mkDB := func() *db.Database {
		d := db.New()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < n; i++ {
			d.AddTuple("R", []ast.Const{ast.Int(int64(rng.Intn(500))), ast.Int(int64(rng.Intn(500)))})
		}
		return d
	}
	b.Run("insert-dedup", func(b *testing.B) {
		args := []ast.Const{0, 0}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := db.New()
			rng := rand.New(rand.NewSource(3))
			b.StartTimer()
			for j := 0; j < n; j++ {
				args[0], args[1] = ast.Int(int64(rng.Intn(500))), ast.Int(int64(rng.Intn(500)))
				d.AddTuple("R", args)
			}
		}
	})
	b.Run("probe-hit", func(b *testing.B) {
		d := mkDB()
		rel := d.Relation("R")
		d.EnsureIndex("R", []int{0})
		// As the kernel does: bind once per pass, seek per probe, and take
		// the flat path on a flat relation.
		p := rel.Prober([]int{0}, d.Round())
		if !p.Flat() {
			b.Fatal("freshly loaded relation is not flat")
		}
		key := []ast.Const{0}
		b.ResetTimer()
		var total int
		for i := 0; i < b.N; i++ {
			key[0] = ast.Int(int64(i % 500))
			it := p.SeekFlat(key)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				total++
			}
		}
		_ = total
	})
	b.Run("lookup-full", func(b *testing.B) {
		d := mkDB()
		rel := d.Relation("R")
		rng := rand.New(rand.NewSource(4))
		key := []ast.Const{0, 0}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key[0], key[1] = ast.Int(int64(rng.Intn(500))), ast.Int(int64(rng.Intn(500)))
			rel.LookupID(key)
		}
	})
}

// BenchmarkStratifiedMagic measures the stratified magic pipeline against
// plain bottom-up evaluation on a dead-code-detection query.
func BenchmarkStratifiedMagic(b *testing.B) {
	p := parser.MustParseProgram(`
		Reach(x) :- Src(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x) :- Node(x), !Reach(x).
	`)
	edb := workload.Chain("E", 64)
	edb.Add(ast.GroundAtom{Pred: "Src", Args: []ast.Const{ast.Int(0)}})
	for i := int64(0); i <= 64; i++ {
		edb.Add(ast.GroundAtom{Pred: "Node", Args: []ast.Const{ast.Int(i)}})
	}
	// The query is all-free, so magic cannot prune: this bench records the
	// OVERHEAD of stratified magic — one fixpoint of the rewritten program,
	// the lower stratum riding along unchanged — relative to plain
	// bottom-up: the price of uniformity, not a win.
	q := ast.NewAtom("Dead", ast.Var("x"))
	b.Run("stratified-magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.Answer(p, edb, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bottom-up", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := magic.DirectAnswer(p, edb, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaintain_DRed measures delete-rederive on maintained views; one op
// is a retract batch plus the batch re-asserting it, and overdeleted/op is
// what the two over-deleted. scc-retract-reassert churns one edge of a random
// digraph's giant strongly connected component (every closure fact of the
// component has a firing through it; almost all keep an older proof);
// chain-retract cuts a chain in the middle, where everything over-deleted
// really goes — the support check can only cost there; authz-batch is a
// recursive membership closure (workload.Authz) under two non-recursive
// strata, whose deletions are over-deletions too: ≈ 244 an op, of which ≈ 65
// are the closure's (all there was when counting maintained the upper
// strata). authz-grants is one op a batch of ivm-churn's authorization
// stream at its sizes (workload.AuthzChurn: four toggles, a grant or an ACL
// change in one toggle of four, each fanning out to thousands of CanRead
// changes), the stream followed by its inverse so the view cycles.
func BenchmarkMaintain_DRed(b *testing.B) {
	rltc := workload.TransitiveClosureLinear()
	edge := func(pred string, x, y int64) ast.GroundAtom {
		return ast.NewGroundAtom(pred, ast.Int(x), ast.Int(y))
	}
	scc := workload.RandomDigraph("A", 500, 750, 7)
	closure := eval.MustEval(rltc, scc)
	var churn []ast.GroundAtom // edges on a cycle: inside the giant component
	for _, f := range scc.Facts() {
		if len(churn) < 16 && closure.Has(ast.NewGroundAtom("G", f.Args[1], f.Args[0])) {
			churn = append(churn, f)
		}
	}
	const chain = 600
	authz := workload.Authz()
	rng := rand.New(rand.NewSource(11))
	org := db.New()
	var orgChurn []ast.GroundAtom // memberships and subgroup links, alternating
	for u := int64(0); u < 400; u++ {
		org.Add(edge("Direct", u, 1000+rng.Int63n(24)))
	}
	for g := int64(1); g < 24; g++ {
		sub, direct := edge("Subgroup", 1000+g, 1000+rng.Int63n(g)), edge("Direct", g, 1000+rng.Int63n(24))
		org.Add(sub)
		org.Add(direct)
		orgChurn = append(orgChurn, direct, sub)
	}
	for g := int64(0); g < 24; g++ {
		org.Add(edge("Grant", 1000+g, 2000+rng.Int63n(8)))
	}
	for r := int64(0); r < 8; r++ {
		for k := 0; k < 6; k++ {
			org.Add(edge("Allows", 2000+r, 3000+rng.Int63n(60)))
		}
	}
	// retractReassert is one op per fact: its retraction, then its return.
	retractReassert := func(facts ...ast.GroundAtom) [][]eval.Delta {
		ops := make([][]eval.Delta, len(facts))
		for i := range facts {
			f := facts[i : i+1]
			ops[i] = []eval.Delta{{Retract: f}, {Assert: f}}
		}
		return ops
	}
	grantSizes := workload.AuthzSizes{Users: 2000, Groups: 48, Roles: 16, Docs: 240, DocsPerRole: 12}
	grantTenant := workload.AuthzTenant(rand.New(rand.NewSource(11)), grantSizes)
	stream := workload.AuthzChurn(rand.New(rand.NewSource(12)), grantTenant, grantSizes, 400)
	// The stream, then each batch's inverse in reverse order: the view cycles.
	var grantOps [][]eval.Delta
	for i := range 2 * len(stream) {
		bt := stream[i%len(stream)]
		if i >= len(stream) {
			bt = stream[2*len(stream)-1-i].Inverse()
		}
		grantOps = append(grantOps, []eval.Delta{{Assert: bt.Assert, Retract: bt.Retract}})
	}
	for _, arm := range []struct {
		name string
		p    *ast.Program
		edb  *db.Database
		ops  [][]eval.Delta // op i applies ops[i%len(ops)]
	}{
		{"scc-retract-reassert", rltc, scc, retractReassert(churn...)},
		{"chain-retract", rltc, workload.Chain("A", chain), retractReassert(edge("A", chain/2, chain/2+1))},
		{"authz-batch", authz, org, retractReassert(orgChurn...)},
		{"authz-grants", authz, grantTenant, grantOps},
	} {
		b.Run(arm.name, func(b *testing.B) {
			pr, err := eval.Prepare(arm.p)
			if err != nil {
				b.Fatal(err)
			}
			m, _, err := pr.Materialize(context.Background(), arm.edb)
			if err != nil {
				b.Fatal(err)
			}
			overdeleted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, delta := range arm.ops[i%len(arm.ops)] {
					_, stats, err := m.Apply(context.Background(), delta)
					if err != nil {
						b.Fatal(err)
					}
					overdeleted += stats.Overdeleted
				}
			}
			b.ReportMetric(float64(overdeleted)/float64(b.N), "overdeleted/op")
		})
	}
}

// BenchmarkSmallTenantEvalVsApply prices the two ways a server can keep a
// small tenant's output current after a write of one assert and one retract:
// evaluate the new version from scratch (Session.EvalWith, what a memo miss
// runs) or apply the batch to a maintained view (View.Apply, what a live view
// runs per batch). It prices both serve-mixed programs at the size of a
// serve-mixed tenant. authz (eval, apply): 20 users, 5 groups, 4 roles, 16
// documents — 53 base facts and 178 derived ones; the batch swaps one
// membership for another. reach (reach-eval, reach-apply): a transitive
// closure under a non-recursive view over a random digraph of 20 nodes and
// 28 edges with 4 sinks; the batch swaps one edge for another. Apply
// alternates the swap and its inverse, so the view stays the same size.
func BenchmarkSmallTenantEvalVsApply(b *testing.B) {
	edge := func(pred string, x, y int64) ast.GroundAtom {
		return ast.NewGroundAtom(pred, ast.Int(x), ast.Int(y))
	}
	authz := workload.AuthzTenant(rand.New(rand.NewSource(5)), workload.AuthzSizes{Users: 20, Groups: 5, Roles: 4, Docs: 16, DocsPerRole: 4})
	// present is a membership of the tenant, absent one it lacks.
	present := ast.NewGroundAtom("Direct", authz.Relation("Direct").Tuple(0)...)
	absent := edge("Direct", 100000, 1000)
	for g := int64(1001); authz.Has(absent); g++ {
		absent = edge("Direct", 100000, g)
	}
	smallTenantArms(b, "", workload.Authz(), authz, present, absent)

	const nodes = 20
	reach := workload.RandomDigraph("Edge", nodes, 28, 5)
	for _, s := range rand.New(rand.NewSource(5)).Perm(nodes)[:4] {
		reach.Add(ast.NewGroundAtom("Sink", ast.Int(int64(s))))
	}
	present = ast.NewGroundAtom("Edge", reach.Relation("Edge").Tuple(0)...)
	absent = edge("Edge", 0, 0)
	for y := int64(1); reach.Has(absent); y++ {
		absent = edge("Edge", 0, y)
	}
	smallTenantArms(b, "reach-", parser.MustParseProgram(`
	Reach(x, y) :- Edge(x, y).
	Reach(x, y) :- Edge(x, z), Reach(z, y).
	Hot(x) :- Reach(x, y), Sink(y).
`), reach, present, absent)
}

// smallTenantArms runs BenchmarkSmallTenantEvalVsApply's eval and apply arms
// of one tenant: present is a fact of tenant, absent one it lacks.
func smallTenantArms(b *testing.B, prefix string, p *ast.Program, tenant *db.Database, present, absent ast.GroundAtom) {
	ctx := context.Background()
	sess, err := core.NewSession(p)
	if err != nil {
		b.Fatal(err)
	}
	snap := tenant.Freeze()
	b.Run(prefix+"eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := sess.EvalWith(ctx, snap.DB(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(prefix+"apply", func(b *testing.B) {
		view, _, err := sess.Materialize(ctx, snap.DB(), core.MaintainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		swap := [2]core.DatabaseDelta{
			{Assert: []ast.GroundAtom{absent}, Retract: []ast.GroundAtom{present}},
			{Assert: []ast.GroundAtom{present}, Retract: []ast.GroundAtom{absent}},
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := view.Apply(ctx, swap[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
