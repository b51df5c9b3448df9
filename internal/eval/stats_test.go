package eval

import (
	"encoding/json"
	"reflect"
	"testing"
)

// statLeaves walks Stats by reflection and returns every leaf counter as an
// addressable int value with its Go name and json tag, in declaration order.
func statLeaves(t *testing.T, s *Stats) (vals []reflect.Value, names, tags []string) {
	t.Helper()
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			switch {
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				walk(v.Field(i))
			case f.Type.Kind() == reflect.Int:
				vals = append(vals, v.Field(i))
				names = append(names, f.Name)
				tags = append(tags, f.Tag.Get("json"))
			default:
				t.Fatalf("Stats.%s: counters are plain ints inside embedded groups, got %s", f.Name, f.Type)
			}
		}
	}
	walk(reflect.ValueOf(s).Elem())
	return vals, names, tags
}

// TestStatsAddSubCoverEveryField: a counter added to Stats but not to the
// leaves enumeration would be a silent zero in every total. Every leaf gets
// a distinct value; Add must double and Sub must zero each one, and every
// leaf must carry a unique wire name.
func TestStatsAddSubCoverEveryField(t *testing.T) {
	var s Stats
	vals, names, tags := statLeaves(t, &s)
	if len(vals) != 21 {
		t.Fatalf("Stats has %d leaf counters, want 21 (update the wire golden and TUTORIAL's counters table with the new one)", len(vals))
	}
	seen := make(map[string]string)
	for i, v := range vals {
		v.SetInt(int64(i + 1))
		if tags[i] == "" {
			t.Errorf("Stats.%s has no json tag", names[i])
		}
		if other, dup := seen[tags[i]]; dup {
			t.Errorf("Stats.%s and Stats.%s share the wire name %q", names[i], other, tags[i])
		}
		seen[tags[i]] = names[i]
	}

	sum := s
	sum.Add(s)
	sumVals, _, _ := statLeaves(t, &sum)
	diff := s.Sub(s)
	diffVals, _, _ := statLeaves(t, &diff)
	for i, name := range names {
		if got, want := sumVals[i].Int(), int64(2*(i+1)); got != want {
			t.Errorf("Add skipped Stats.%s: got %d, want %d", name, got, want)
		}
		if got := diffVals[i].Int(); got != 0 {
			t.Errorf("Sub skipped Stats.%s: got %d, want 0", name, got)
		}
	}
	if vals[0].Int() != 1 {
		t.Fatal("Sub mutated its receiver")
	}
}

// TestStatsWireGolden pins the stats object of /eval, /minimize and
// /v1/statz: the 21 keys, in this order — the 23 the hand-written wire
// struct emitted before Stats carried its own tags, plus tuples_copied at the
// end of its group, less the three shard counters the sharded executor's
// deletion took with it.
func TestStatsWireGolden(t *testing.T) {
	var s Stats
	vals, _, _ := statLeaves(t, &s)
	for i, v := range vals {
		v.SetInt(int64(i + 1))
	}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"rounds":1,"firings":2,"added":3,` +
		`"prepare_hits":4,"prepare_misses":5,"verdicts_reused":6,"verdicts_recomputed":7,"verdicts_subsumed":8,` +
		`"strata_streamed":9,"strata_materialized":10,"bindings_pipelined":11,"early_stop_cuts":12,` +
		`"applies":13,"count_adjusted":14,"overdeleted":15,"rederived":16,"relations_frozen":17,"freeze_skipped":18,"tuples_copied":19,` +
		`"chases_budget_free":20,"chases_budget_bounded":21}`
	if string(got) != want {
		t.Fatalf("stats wire object changed:\n got %s\nwant %s", got, want)
	}
}
