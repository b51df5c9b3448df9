package repro

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/maintain_pins.txt from the current maintenance code")

// pinBatches is how many batches TestMaintainDecisionsPinned replays of each
// script.
const pinBatches = 48

// TestMaintainDecisionsPinned holds every decision view maintenance takes to
// recorded values: it replays pinBatches batches of each script of
// BenchmarkMaintain_DRed and of a stratified-negation script, and per batch
// compares the Diff, Overdeleted, Rederived, TuplesCopied and the output's
// layout — every id of every relation, dead or alive, with its tuple and
// round stamp — with testdata/maintain_pins.txt. A rewrite of Apply's
// bookkeeping that moves no decision leaves every line as it is; go test
// -run TestMaintainDecisionsPinned -update re-records the file when a change
// means to move one.
func TestMaintainDecisionsPinned(t *testing.T) {
	const path = "testdata/maintain_pins.txt"
	var got []string
	for _, arm := range append(maintArms(), stratifiedArm()) {
		pr, err := eval.Prepare(arm.p)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := pr.Materialize(context.Background(), arm.edb)
		if err != nil {
			t.Fatal(err)
		}
		var deltas []eval.Delta
		for i := 0; len(deltas) < pinBatches; i++ {
			deltas = append(deltas, arm.ops[i%len(arm.ops)]...)
		}
		for i, delta := range deltas[:pinBatches] {
			diff, stats, err := m.Apply(context.Background(), delta)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s %d overdeleted=%d rederived=%d copied=%d added=%d removed=%d diff=%s out=%s",
				arm.name, i, stats.Overdeleted, stats.Rederived, stats.TuplesCopied,
				len(diff.Added), len(diff.Removed), diffDigest(diff), layoutDigest(m.Output())))
		}
	}
	if *updatePins {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d batches replayed, %d pinned", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("batch moved:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d batches moved", bad, len(want))
	}
}

// stratifiedArm is a stratified-negation script: a reachability closure, a
// non-recursive unit negating it, a join over that unit, and a recursive
// closure negating it in turn, under random toggles of edges, sources and
// nodes, so a change below both asserts and retracts facts above.
func stratifiedArm() maintArm {
	p := parser.MustParseProgram(`
		Reach(x) :- S(x).
		Reach(y) :- Reach(x), E(x, y).
		Dead(x) :- N(x), !Reach(x).
		Pair(x, y) :- Dead(x), Dead(y), E(x, y).
		R(x, y) :- E(x, y).
		R(x, z) :- R(x, y), E(y, z), !Dead(y).
	`)
	const nodes = 12
	rng := rand.New(rand.NewSource(5))
	node := func() ast.Const { return ast.Int(int64(rng.Intn(nodes))) }
	fact := func() ast.GroundAtom {
		switch k := rng.Intn(8); {
		case k < 5:
			return ast.NewGroundAtom("E", node(), node())
		case k < 6:
			return ast.NewGroundAtom("S", node())
		default:
			return ast.NewGroundAtom("N", node())
		}
	}
	state := db.New()
	state.Add(ast.NewGroundAtom("S", ast.Int(0)))
	for i := 0; i < 20; i++ {
		state.Add(ast.NewGroundAtom("E", node(), node()))
	}
	for i := int64(0); i < nodes; i++ {
		state.Add(ast.NewGroundAtom("N", ast.Int(i)))
	}
	edb := state.Clone()
	var ops [][]eval.Delta
	for range pinBatches {
		var d eval.Delta
		seen := map[string]bool{}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			g := fact()
			if seen[g.Key()] {
				continue
			}
			seen[g.Key()] = true
			if state.Has(g) {
				state.Remove(g)
				d.Retract = append(d.Retract, g)
			} else {
				state.Add(g)
				d.Assert = append(d.Assert, g)
			}
		}
		ops = append(ops, []eval.Delta{d})
	}
	return maintArm{"stratified", p, edb, ops}
}

// diffDigest is a short digest of a Diff, both halves in their order.
func diffDigest(d eval.Diff) string {
	h := sha256.New()
	var buf []byte
	for _, half := range [2][]ast.GroundAtom{d.Added, d.Removed} {
		for _, g := range half {
			buf = append(buf, g.Pred...)
			for _, c := range g.Args {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
			}
		}
		buf = append(buf, '|')
	}
	h.Write(buf)
	return short(h)
}

// layoutDigest is a short digest of a database's layout: per predicate, every
// id with its liveness, round stamp and tuple.
func layoutDigest(d *db.Database) string {
	h := sha256.New()
	var buf []byte
	for _, pred := range d.Preds() {
		rel := d.Relation(pred)
		buf = binary.LittleEndian.AppendUint64(append(buf[:0], pred...), uint64(rel.Len()))
		for i := 0; i < rel.Len(); i++ {
			if !rel.Alive(i) {
				buf = append(buf, 'x')
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(rel.RoundOf(i)))
			for _, c := range rel.Tuple(i) {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
			}
		}
		h.Write(buf)
	}
	return short(h)
}

func short(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }
