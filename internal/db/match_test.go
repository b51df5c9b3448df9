package db_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/oracle"
)

// The store's read API — scans over Alive ids, LookupID, Prober chains,
// RoundOf — pinned through its most literal client, the oracle matcher
// (internal/oracle: the reference every join in the tree is tested against,
// written against this package's exported API only), and Select.

func ga(pred string, args ...int64) ast.GroundAtom {
	cs := make([]ast.Const, len(args))
	for i, a := range args {
		cs[i] = ast.Int(a)
	}
	return ast.GroundAtom{Pred: pred, Args: cs}
}

// example2EDB is the EDB of Example 2: {A(1,2), A(1,4), A(4,1)}.
func example2EDB() *db.Database {
	return db.FromFacts([]ast.GroundAtom{ga("A", 1, 2), ga("A", 1, 4), ga("A", 4, 1)})
}

func collectBindings(d *db.Database, atoms []ast.Atom) []map[string]int64 {
	var out []map[string]int64
	oracle.MatchConjunction(d, atoms, ast.Binding{}, func() bool {
		return true
	})
	// Re-run capturing snapshots (MatchConjunction mutates one shared binding).
	b := ast.Binding{}
	oracle.MatchConjunction(d, atoms, b, func() bool {
		snap := make(map[string]int64, len(b))
		for v, c := range b {
			snap[v] = int64(c)
		}
		out = append(out, snap)
		return true
	})
	return out
}

func TestMatchAtomBasic(t *testing.T) {
	d := example2EDB()
	atom := ast.NewAtom("A", ast.Var("x"), ast.Var("y"))
	n := 0
	oracle.MatchAtom(d, atom, db.AllRounds, ast.Binding{}, func() bool { n++; return true })
	if n != 3 {
		t.Fatalf("matched %d, want 3", n)
	}
}

func TestMatchAtomWithConstant(t *testing.T) {
	d := example2EDB()
	atom := ast.NewAtom("A", ast.IntTerm(1), ast.Var("y"))
	var ys []int64
	b := ast.Binding{}
	oracle.MatchAtom(d, atom, db.AllRounds, b, func() bool {
		ys = append(ys, int64(b["y"]))
		return true
	})
	sort.Slice(ys, func(i, j int) bool { return ys[i] < ys[j] })
	if len(ys) != 2 || ys[0] != 2 || ys[1] != 4 {
		t.Fatalf("ys = %v", ys)
	}
}

func TestMatchAtomRepeatedVariable(t *testing.T) {
	d := db.New()
	d.Add(ga("A", 1, 1))
	d.Add(ga("A", 1, 2))
	atom := ast.NewAtom("A", ast.Var("x"), ast.Var("x"))
	n := 0
	oracle.MatchAtom(d, atom, db.AllRounds, ast.Binding{}, func() bool { n++; return true })
	if n != 1 {
		t.Fatalf("repeated-variable match count = %d, want 1", n)
	}
}

func TestMatchAtomFullyBound(t *testing.T) {
	d := example2EDB()
	atom := ast.NewAtom("A", ast.Var("x"), ast.Var("y"))
	b := ast.Binding{"x": ast.Int(1), "y": ast.Int(4)}
	n := 0
	oracle.MatchAtom(d, atom, db.AllRounds, b, func() bool { n++; return true })
	if n != 1 {
		t.Fatalf("fully bound match count = %d", n)
	}
	b2 := ast.Binding{"x": ast.Int(4), "y": ast.Int(4)}
	oracle.MatchAtom(d, atom, db.AllRounds, b2, func() bool { t.Fatal("matched absent tuple"); return false })
}

func TestMatchAtomMissingRelation(t *testing.T) {
	d := db.New()
	atom := ast.NewAtom("Z", ast.Var("x"))
	if !oracle.MatchAtom(d, atom, db.AllRounds, ast.Binding{}, func() bool { t.Fatal("match"); return false }) {
		t.Fatal("MatchAtom on missing relation returned false")
	}
}

func TestMatchAtomRoundWindow(t *testing.T) {
	d := db.New()
	d.Add(ga("A", 1, 1)) // round 0
	d.BeginRound()
	d.Add(ga("A", 2, 2)) // round 1
	atom := ast.NewAtom("A", ast.Var("x"), ast.Var("y"))

	count := func(w db.RoundWindow) int {
		n := 0
		oracle.MatchAtom(d, atom, w, ast.Binding{}, func() bool { n++; return true })
		return n
	}
	if got := count(db.RoundWindow{Min: 1, Max: 1}); got != 1 {
		t.Fatalf("delta window matched %d", got)
	}
	if got := count(db.RoundWindow{Min: 0, Max: 0}); got != 1 {
		t.Fatalf("old window matched %d", got)
	}
	if got := count(db.AllRounds); got != 2 {
		t.Fatalf("all window matched %d", got)
	}
	// Round windows also apply on the fully-bound fast path.
	b := ast.Binding{"x": ast.Int(1), "y": ast.Int(1)}
	n := 0
	oracle.MatchAtom(d, atom, db.RoundWindow{Min: 1, Max: 1}, b, func() bool { n++; return true })
	if n != 0 {
		t.Fatal("fully-bound path ignored round window")
	}
}

func TestMatchConjunctionJoin(t *testing.T) {
	// Join A(x,y), A(y,z) over the Example 2 EDB: pairs (1,4,1), (4,1,2), (4,1,4).
	d := example2EDB()
	atoms := []ast.Atom{
		ast.NewAtom("A", ast.Var("x"), ast.Var("y")),
		ast.NewAtom("A", ast.Var("y"), ast.Var("z")),
	}
	got := collectBindings(d, atoms)
	if len(got) != 3 {
		t.Fatalf("join produced %d bindings: %v", len(got), got)
	}
	want := map[[3]int64]bool{{1, 4, 1}: true, {4, 1, 2}: true, {4, 1, 4}: true}
	for _, m := range got {
		k := [3]int64{m["x"], m["y"], m["z"]}
		if !want[k] {
			t.Fatalf("unexpected binding %v", m)
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("missing bindings: %v", want)
	}
}

func TestMatchConjunctionEarlyStop(t *testing.T) {
	d := example2EDB()
	atoms := []ast.Atom{ast.NewAtom("A", ast.Var("x"), ast.Var("y"))}
	n := 0
	cont := oracle.MatchConjunction(d, atoms, ast.Binding{}, func() bool { n++; return false })
	if cont || n != 1 {
		t.Fatalf("early stop failed: cont=%v n=%d", cont, n)
	}
}

func TestSatisfiable(t *testing.T) {
	d := example2EDB()
	// ∃w A(1,w): yes. ∃w A(2,w): no.
	yes := []ast.Atom{ast.NewAtom("A", ast.Var("v"), ast.Var("w"))}
	if !oracle.Satisfiable(d, yes, ast.Binding{"v": ast.Int(1)}) {
		t.Fatal("satisfiable conjunction reported unsatisfiable")
	}
	if oracle.Satisfiable(d, yes, ast.Binding{"v": ast.Int(2)}) {
		t.Fatal("unsatisfiable conjunction reported satisfiable")
	}
	// The binding passed to Satisfiable must not be mutated.
	b := ast.Binding{"v": ast.Int(1)}
	oracle.Satisfiable(d, yes, b)
	if len(b) != 1 {
		t.Fatalf("Satisfiable mutated binding: %v", b)
	}
}

func TestMatchSeqPropertySameAsFilter(t *testing.T) {
	// Property: for random small databases, the number of join results of
	// A(x,y), A(y,z) equals the count from a brute-force double loop.
	f := func(pairs [][2]uint8) bool {
		d := db.New()
		for _, p := range pairs {
			d.Add(ga("A", int64(p[0]%8), int64(p[1]%8)))
		}
		atoms := []ast.Atom{
			ast.NewAtom("A", ast.Var("x"), ast.Var("y")),
			ast.NewAtom("A", ast.Var("y"), ast.Var("z")),
		}
		n := 0
		oracle.MatchConjunction(d, atoms, ast.Binding{}, func() bool { n++; return true })

		brute := 0
		facts := d.Facts()
		for _, f1 := range facts {
			for _, f2 := range facts {
				if f1.Args[1] == f2.Args[0] {
					brute++
				}
			}
		}
		return n == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	// The parallel evaluation phase reads (and lazily indexes) relations
	// from many goroutines with no concurrent writes; run lookups from
	// several goroutines to exercise the index mutex (meaningful under
	// -race).
	d := db.New()
	for i := int64(0); i < 200; i++ {
		d.Add(ga("A", i%20, (i*7)%20))
	}
	atom := ast.NewAtom("A", ast.Var("x"), ast.Var("y"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				b := ast.Binding{"x": ast.Int(int64((w + rep) % 20))}
				n := 0
				oracle.MatchAtom(d, atom, db.AllRounds, b, func() bool { n++; return true })
				if n == 0 && d.Len() > 0 {
					// Some x values may genuinely have no out-edges; just
					// exercise the path.
					_ = n
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSelect pins the query-projection helper every Query entry point
// shares: constants filter, repeated variables must agree, rows come back
// whole, in insertion order, as copies.
func TestSelect(t *testing.T) {
	d := db.New()
	for _, g := range []ast.GroundAtom{ga("A", 3, 3), ga("A", 1, 2), ga("A", 1, 1), ga("B", 1, 9)} {
		d.Add(g)
	}
	rows := func(q ast.Atom) string { return fmt.Sprint(db.Select(d, q)) }
	if got := rows(ast.NewAtom("A", ast.Var("x"), ast.Var("y"))); got != "[[3 3] [1 2] [1 1]]" {
		t.Fatalf("all of A = %s", got)
	}
	if got := rows(ast.NewAtom("A", ast.IntTerm(1), ast.Var("y"))); got != "[[1 2] [1 1]]" {
		t.Fatalf("A(1, y) = %s", got)
	}
	if got := rows(ast.NewAtom("A", ast.Var("x"), ast.Var("x"))); got != "[[3 3] [1 1]]" {
		t.Fatalf("A(x, x) = %s", got)
	}
	if got := db.Select(d, ast.NewAtom("C", ast.Var("x"))); got != nil {
		t.Fatalf("missing relation = %v", got)
	}
	out := db.Select(d, ast.NewAtom("B", ast.Var("x"), ast.Var("y")))
	out[0][1] = 0
	if !d.Has(ga("B", 1, 9)) {
		t.Fatal("Select returned a view into the arena, not a copy")
	}
}
