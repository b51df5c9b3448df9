package ast

import (
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstRangesDisjoint(t *testing.T) {
	cases := []struct {
		name   string
		c      Const
		isInt  bool
		isSym  bool
		isFro  bool
		isNull bool
	}{
		{"zero", Int(0), true, false, false, false},
		{"positive", Int(12345), true, false, false, false},
		{"negative", Int(-99), true, false, false, false},
		{"maxInt", Int(int64(intLimit) - 1), true, false, false, false},
		{"minInt", Int(-int64(intLimit) + 1), true, false, false, false},
		{"frozen0", FrozenConst(0), false, false, true, false},
		{"frozenBig", FrozenConst(1 << 20), false, false, true, false},
		{"null0", NullConst(0), false, false, false, true},
		{"nullBig", NullConst(1 << 20), false, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsInt(tc.c); got != tc.isInt {
				t.Errorf("IsInt(%d) = %v, want %v", tc.c, got, tc.isInt)
			}
			if got := IsSym(tc.c); got != tc.isSym {
				t.Errorf("IsSym(%d) = %v, want %v", tc.c, got, tc.isSym)
			}
			if got := IsFrozen(tc.c); got != tc.isFro {
				t.Errorf("IsFrozen(%d) = %v, want %v", tc.c, got, tc.isFro)
			}
			if got := IsNull(tc.c); got != tc.isNull {
				t.Errorf("IsNull(%d) = %v, want %v", tc.c, got, tc.isNull)
			}
		})
	}
}

func TestIntPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int(1<<40) did not panic")
		}
	}()
	Int(int64(intLimit))
}

func TestExactlyOneKindProperty(t *testing.T) {
	// Every Const value in the representable ranges belongs to exactly one
	// kind.
	f := func(raw int64) bool {
		c := Const(raw)
		n := 0
		for _, ok := range []bool{IsInt(c), IsSym(c), IsFrozen(c), IsNull(c)} {
			if ok {
				n++
			}
		}
		if c <= -intLimit {
			return n == 0 // below the integer range: no kind
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrozenAndNullIndexRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 7, 4095, 1 << 22} {
		if got := FrozenIndex(FrozenConst(i)); got != i {
			t.Errorf("FrozenIndex(FrozenConst(%d)) = %d", i, got)
		}
		if got := NullIndex(NullConst(i)); got != i {
			t.Errorf("NullIndex(NullConst(%d)) = %d", i, got)
		}
	}
}

func TestConstGen(t *testing.T) {
	g := NewFrozenGen()
	a, b, c := g.Fresh(), g.Fresh(), g.Fresh()
	if a == b || b == c || a == c {
		t.Fatalf("Fresh returned duplicates: %d %d %d", a, b, c)
	}
	if !IsFrozen(a) || !IsFrozen(c) {
		t.Fatal("frozen generator produced non-frozen constants")
	}
	if issued := g.next - frozenBase; issued != 3 {
		t.Fatalf("issued %d constants, want 3", issued)
	}
	ng := NewNullGen(5)
	n := ng.Fresh()
	if !IsNull(n) || NullIndex(n) != 5 {
		t.Fatalf("null generator started at wrong index: %v", n)
	}
}

func TestSymbolTable(t *testing.T) {
	tab := NewSymbolTable()
	ann := tab.Intern("ann")
	bob := tab.Intern("bob")
	if ann == bob {
		t.Fatal("distinct names interned to same constant")
	}
	if again := tab.Intern("ann"); again != ann {
		t.Fatal("re-interning a name changed its constant")
	}
	if !IsSym(ann) {
		t.Fatal("interned constant is not symbolic")
	}
	if name, ok := tab.Name(ann); !ok || name != "ann" {
		t.Fatalf("Name(ann) = %q, %v", name, ok)
	}
	if _, ok := tab.Name(Int(3)); ok {
		t.Fatal("Name succeeded on a plain integer")
	}
	if c, ok := tab.Lookup("bob"); !ok || c != bob {
		t.Fatal("Lookup(bob) failed")
	}
	if _, ok := tab.Lookup("carol"); ok {
		t.Fatal("Lookup found a never-interned name")
	}
	if len(tab.names) != 2 {
		t.Fatalf("%d names interned, want 2", len(tab.names))
	}
}

// TestSymbolTableConcurrentIntern: goroutines interning overlapping name sets
// (run under -race by make race-service) agree on every constant, and the
// table stays a dense bijection — equal names get equal constants, n distinct
// names get the first n symbolic constants, Name inverts Intern.
func TestSymbolTableConcurrentIntern(t *testing.T) {
	const workers, names = 8, 200
	tab := NewSymbolTable()
	got := make([][]Const, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]Const, names)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker walks the shared names from its own offset, so
			// first interns of one name collide from different goroutines.
			for k := 0; k < names; k++ {
				i := (k + w*names/workers) % names
				name := "n" + strconv.Itoa(i)
				c := tab.Intern(name)
				got[w][i] = c
				if back, ok := tab.Name(c); !ok || back != name {
					t.Errorf("Name(Intern(%q)) = %q, %v", name, back, ok)
				}
				if l, ok := tab.Lookup(name); !ok || l != c {
					t.Errorf("Lookup(%q) = %v, %v after Intern gave %v", name, l, ok, c)
				}
			}
		}()
	}
	wg.Wait()
	if len(tab.names) != names {
		t.Fatalf("%d names interned, want %d", len(tab.names), names)
	}
	seen := make(map[Const]bool)
	for i := 0; i < names; i++ {
		c := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != c {
				t.Fatalf("name %d interned to %v by worker 0 and %v by worker %d", i, c, got[w][i], w)
			}
		}
		if c < symBase || c >= symBase+names || seen[c] {
			t.Fatalf("name %d got constant %v: not dense or not distinct", i, c)
		}
		seen[c] = true
	}
}

func TestFormatConst(t *testing.T) {
	tab := NewSymbolTable()
	ann := tab.Intern("ann")
	cases := []struct {
		c    Const
		tab  *SymbolTable
		want string
	}{
		{Int(42), nil, "42"},
		{Int(-7), nil, "-7"},
		{ann, tab, `"ann"`},
		{ann, nil, `"sym0"`},
		{FrozenConst(3), nil, "θ3"},
		{NullConst(12), nil, "δ12"},
	}
	for _, tc := range cases {
		if got := FormatConst(tc.c, tc.tab); got != tc.want {
			t.Errorf("FormatConst(%d) = %q, want %q", tc.c, got, tc.want)
		}
	}
}
