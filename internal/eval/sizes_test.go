package eval

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/workload"
)

// A plan records the sizes its head relations ended with (Prepared.sizes),
// and its next run with no goal and no mask creates them at those sizes.
// The tests below hold such a sized run to a cold one — a fresh plan with
// nothing recorded — and check that a reservation far above a run's output
// is given back.

// runFingerprint renders everything a run reports and a reader can see of
// its output: the error, the stats, the relation count (a reservation must
// not leave an empty relation behind), the predicates, and the facts of
// each in id order with their round stamps.
func runFingerprint(out *db.Database, st Stats, err error) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "err %v\nstats %+v\n", err, st)
	if out == nil {
		return sb.String()
	}
	fmt.Fprintf(&sb, "relations %d preds %v\n", out.RelationCount(), out.Preds())
	for _, p := range out.Preds() {
		rel := out.Relation(p)
		for i := 0; i < rel.Len(); i++ {
			if rel.Alive(i) {
				fmt.Fprintf(&sb, "%s%v@%d ", p, rel.Tuple(i), rel.RoundOf(i))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sizedInput draws an input for p: random extensional facts over a domain
// of the given size and, in some draws, facts of the program's own heads
// (inputs may assign intentional relations too); frozen in some draws, so
// that a head relation of the input is shared and written copy-on-write.
func sizedInput(rng *rand.Rand, p *ast.Program, domain, facts int) *db.Database {
	d := workload.RandomDB(rng, p, domain, facts)
	if heads := p.IDBPredicates(); rng.Intn(3) == 0 {
		for _, sig := range p.Predicates() {
			if heads[sig.Name] && rng.Intn(2) == 0 {
				args := make([]ast.Const, sig.Arity)
				for i := range args {
					args[i] = ast.Int(int64(rng.Intn(domain)))
				}
				d.AddTuple(sig.Name, args)
			}
		}
	}
	if rng.Intn(2) == 0 {
		d.Freeze()
	}
	return d
}

// TestSizedRunMatchesCold: over the package's random program generators,
// a plan whose record was written by a run on one input runs a second input
// exactly as a fresh plan does — the same facts in the same order, round
// stamps, stats and relations — unbudgeted, under a budget it stays within
// and under one that cuts it.
func TestSizedRunMatchesCold(t *testing.T) {
	ctx := context.Background()
	compared := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p *ast.Program
		if seed%2 == 0 {
			p = workload.RandomProgram(rng, 1+rng.Intn(5))
		} else {
			p = randomLayeredProgram(rng, 2+rng.Intn(6))
		}
		if p.Validate() != nil {
			continue
		}
		first := sizedInput(rng, p, 3+rng.Intn(6), 2+rng.Intn(10))
		second := sizedInput(rng, p, 3+rng.Intn(6), 2+rng.Intn(10))
		warm := mustPrepare(p)
		if _, _, _, err := warm.Run(ctx, first, nil, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cold, _, coldStats, coldErr := mustPrepare(p).Run(ctx, second, nil, 0)
		budgets := []int{0}
		if coldErr == nil && coldStats.Added > 0 {
			budgets = append(budgets, coldStats.Added, 1+rng.Intn(coldStats.Added))
		}
		for _, budget := range budgets {
			want := runFingerprint(cold, coldStats, coldErr)
			if budget > 0 {
				out, _, st, err := mustPrepare(p).Run(ctx, second, nil, budget)
				want = runFingerprint(out, st, err)
			}
			out, _, st, err := warm.Run(ctx, second, nil, budget)
			if got := runFingerprint(out, st, err); got != want {
				t.Fatalf("seed %d, budget %d: sized run\n%s\ncold run\n%s\nprogram:\n%s", seed, budget, got, want, p)
			}
			compared++
		}
	}
	if compared < 300 {
		t.Fatalf("compared %d runs, want ≥ 300", compared)
	}
}

// arenaCap reads the capacity, in constants, of a flat relation's arena: a
// store-internal figure no API exposes, read by reflection.
func arenaCap(rel *db.Relation) int {
	return reflect.ValueOf(rel).Elem().FieldByName("seg").FieldByName("data").Cap()
}

// TestSizedRunReleasesSlack: a plan that last produced 10,000 tuples of a
// relation reserves that much for its next run, and a next run that
// produces 10 gives the reservation back: its output's arena stays within
// twice its tuples. The run after that reserves 10.
func TestSizedRunReleasesSlack(t *testing.T) {
	pr := mustPrepare(mustParseProgram(t, "B(x, y) :- A(x, y)."))
	for _, n := range []int{10000, 10, 10} {
		out, _, _, err := pr.Run(context.Background(), workload.Chain("A", n), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rel := out.Relation("B")
		if rel.Len() != n {
			t.Fatalf("B has %d tuples, want %d", rel.Len(), n)
		}
		if c := arenaCap(rel); c > 2*2*n {
			t.Fatalf("after a run of %d tuples B's arena has room for %d constants, want at most %d", n, c, 2*2*n)
		}
	}
}

// TestSizedOutputsKeepLittleSlack runs one plan over 32 authorization
// tenants a few facts apart, as serve-mixed's tenants of one program are,
// freezing each output as the server's memo does, and reports the bytes the
// head relations' arenas and dedup tables keep beyond what a relation created
// at its final size would allocate (its tuples' constants and the smallest
// dedup table holding them, 8 bytes a word). Each run reserves what the run
// before ended with, so an output ends below its reservation or grows past
// it; the record gives that room back. Before it gave back only an arena
// with room for more than twice its tuples, the 32 outputs kept 51,344 bytes
// (21.8 %) beyond their 235,568.
func TestSizedOutputsKeepLittleSlack(t *testing.T) {
	pr := mustPrepare(workload.Authz())
	sizes := workload.AuthzSizes{Users: 20, Groups: 5, Roles: 4, Docs: 16, DocsPerRole: 4}
	kept, floor := 0, 0
	for i := range 32 {
		out, _, _, err := pr.Run(context.Background(), workload.AuthzTenant(rand.New(rand.NewSource(int64(i+1))), sizes), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		out.Freeze()
		for _, pred := range []string{"Member", "HasRole", "CanRead"} {
			rel := out.Relation(pred)
			n, slots := rel.Len(), 16
			for 4*n > 3*slots {
				slots *= 2
			}
			seg := reflect.ValueOf(rel).Elem().FieldByName("seg")
			kept += 8 * (seg.FieldByName("data").Cap() + seg.FieldByName("dedup").Len())
			floor += 8 * (n*rel.Arity() + slots)
		}
	}
	t.Logf("the 32 outputs keep %d bytes beyond their %d (%.1f %%)", kept-floor, floor, 100*float64(kept-floor)/float64(floor))
	if (kept-floor)*16 > floor {
		t.Fatalf("the outputs keep %d bytes beyond their %d, more than a sixteenth", kept-floor, floor)
	}
}

// TestSizedRunsConcurrent: one plan runs inputs of different sizes on
// several goroutines at once, each reading and writing the plan's size
// record (run under -race), and every output is the one a fresh plan
// computes.
func TestSizedRunsConcurrent(t *testing.T) {
	p := workload.TransitiveClosureLinear()
	inputs := make([]*db.Database, 4)
	want := make([]string, len(inputs))
	for i := range inputs {
		inputs[i] = workload.RandomDigraph("A", 20+30*i, 30+40*i, int64(i))
		inputs[i].Freeze()
		out, _, st, err := mustPrepare(p).Run(context.Background(), inputs[i], nil, 0)
		want[i] = runFingerprint(out, st, err)
	}
	pr := mustPrepare(p)
	var wg sync.WaitGroup
	for g := 0; g < len(inputs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(inputs)
				out, _, st, err := pr.Run(context.Background(), inputs[i], nil, 0)
				if got := runFingerprint(out, st, err); got != want[i] {
					t.Errorf("goroutine %d, input %d: sized run\n%s\ncold run\n%s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
