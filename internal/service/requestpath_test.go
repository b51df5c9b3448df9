package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRejectedFirstRegistrationLeavesNoProgram: a name whose only
// registration was refused does not exist — for every verb, and for the
// statz program count.
func TestRejectedFirstRegistrationLeavesNoProgram(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, src := range []string{"T(x :-", "T(x,y) :- E(x,y). E(1,2).", "% nothing"} {
		if code, resp := post(t, ts, "/v1/programs/ghost", map[string]any{"source": src}); code != 400 {
			t.Fatalf("register %q: %d %v", src, code, resp)
		}
	}
	for _, c := range []struct {
		verb string
		body map[string]any
	}{
		{"facts", map[string]any{"tenant": "t", "assert": "E(1,2)."}},
		{"eval", map[string]any{"tenant": "t"}},
		{"subscriptions", map[string]any{"tenant": "t"}},
		{"minimize", map[string]any{}},
		{"compare", map[string]any{}},
		{"vet", map[string]any{}},
		{"explain", map[string]any{"tenant": "t", "fact": "E(1,2)"}},
	} {
		if code, resp := post(t, ts, "/v1/programs/ghost/"+c.verb, c.body); code != 404 || resp["error"] != "unknown_program" {
			t.Errorf("%s on a never-registered name: %d %v, want 404 unknown_program", c.verb, code, resp)
		}
	}
	if _, _, err := s.MutateFacts("ghost", "t", "E(1,2).", ""); err == nil {
		t.Error("MutateFacts stored tenant data for a program that does not exist")
	}
	if _, stz := get(t, ts, "/v1/statz"); stz["programs"] != float64(0) {
		t.Errorf("statz programs = %v, want 0", stz["programs"])
	}

	// The name is still free: its first accepted source is version 1.
	code, resp := post(t, ts, "/v1/programs/ghost", map[string]any{"source": "T(x,y) :- E(x,y)."})
	if code != 200 || resp["version"] != float64(1) {
		t.Fatalf("first accepted registration: %d %v", code, resp)
	}
	if _, stz := get(t, ts, "/v1/statz"); stz["programs"] != float64(1) {
		t.Errorf("statz programs = %v, want 1", stz["programs"])
	}
}

// TestEvalQueryNeedsNoEntryWriteLock: interning a query atom and rendering a
// result are the symbol table's business, so a reader holding the entry lock
// does not stall an /eval with a query, a /minimize or an /explain.
func TestEvalQueryNeedsNoEntryWriteLock(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	e, err := s.known("authz")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// A request that waits on the lock fails the test through post's
	// transport error instead of hanging it.
	ts.Client().Timeout = 5 * time.Second

	for _, c := range []struct {
		verb string
		body map[string]any
	}{
		// A constant the table has not seen: the request must intern it.
		{"eval", map[string]any{"tenant": "acme", "query": `CanRead("nobody", d)`}},
		{"eval", map[string]any{"tenant": "acme", "query": "CanRead(u, d)"}},
		{"minimize", map[string]any{}},
		{"explain", map[string]any{"tenant": "acme", "fact": `CanRead("ann", "handbook")`}},
	} {
		if code, resp := post(t, ts, "/v1/programs/authz/"+c.verb, c.body); code != 200 {
			t.Errorf("%s %v: %d %v", c.verb, c.body, code, resp)
		}
	}
}

// TestRequestsCannotMultiplyPlans: a program costs the plan cache what its
// first evaluation cost it, whatever budgets its tenants send.
func TestRequestsCannotMultiplyPlans(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	// Misses, not entries: the process-wide cache may be full, and a full
	// cache's entry count does not move when it builds a plan.
	misses := func() float64 {
		_, stz := get(t, ts, "/v1/statz")
		return stz["plan_cache"].(map[string]any)["misses"].(float64)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/eval", map[string]any{"tenant": "acme"}); code != 200 {
		t.Fatalf("eval: %d %v", code, resp)
	}
	want := misses()
	for _, budget := range []map[string]any{
		{},
		{"max_derived": 1000},
		{"timeout_ms": 60000},
		{"max_derived": 1 << 20, "timeout_ms": 60000},
		{"max_derived": -1, "timeout_ms": -1},
	} {
		for _, query := range []string{"", "CanRead(u, d)"} {
			body := map[string]any{"tenant": "acme", "query": query, "budget": budget}
			if code, resp := post(t, ts, "/v1/programs/authz/eval", body); code != 200 {
				t.Fatalf("eval %v: %d %v", body, code, resp)
			}
		}
	}
	if got := misses(); got != want {
		t.Fatalf("plan_cache.misses = %v after budgeted evals, want the %v one eval left", got, want)
	}
}

// TestMixedVerbHammer drives every verb against one entry from concurrent
// clients (run under -race by make race-service): registrations append
// versions while facts, evals with fresh query constants, minimizes and
// subscriptions share the entry's symbol table and maps.
func TestMixedVerbHammer(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	f := subscribe(t, ts, "authz", map[string]any{"tenant": "acme", "program_version": 1})
	if snap := f.next(t); snap["snapshot"] != true {
		t.Fatalf("want snapshot first, got %v", snap)
	}

	const clients, rounds = 4, 8
	// A batch needs a credit and a frame read off the feed returns one, so
	// the feed never has more undelivered frames than its buffer holds: the
	// hammer is not a slow consumer however the scheduler treats its stream.
	credits := make(chan struct{}, subscriberBuffer)
	for i := 0; i < subscriberBuffer; i++ {
		credits <- struct{}{}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				who := fmt.Sprintf(`"u%d_%d"`, c, i)
				steps := []struct {
					path string
					body map[string]any
				}{
					{"", map[string]any{"source": authzProgram + fmt.Sprintf("Seen%d_%d(u) :- Member(u, %s).", c, i, who)}},
					{"/facts", map[string]any{"tenant": "acme", "assert": fmt.Sprintf(`Direct(%s, "eng").`, who)}},
					{"/eval", map[string]any{"tenant": "acme", "query": fmt.Sprintf("CanRead(%s, d)", who), "program_version": 1}},
					{"/minimize", map[string]any{"program_version": 1}},
					{"/facts", map[string]any{"tenant": "acme", "retract": fmt.Sprintf(`Direct(%s, "eng").`, who)}},
				}
				for _, st := range steps {
					if st.path == "/facts" {
						<-credits
					}
					buf, _ := json.Marshal(st.body)
					code, resp, err := postErr(ts, "/v1/programs/authz"+st.path, buf)
					if err != nil || code != 200 {
						t.Errorf("client %d round %d %q: %d %v %v", c, i, st.path, code, resp, err)
						return
					}
					if rows, ok := resp["rows"].([]any); ok && (len(rows) != 1 || fmt.Sprint(rows[0]) != fmt.Sprintf("[%s \"handbook\"]", who)) {
						t.Errorf("client %d round %d: rows = %v", c, i, rows)
					}
				}
			}
		}()
	}

	// The feed sees every batch exactly once, in order: seq has no gap.
	want := uint64(1)
	for n := 0; n < 2*clients*rounds; n++ {
		fr := f.next(t)
		if fr["error"] != nil {
			t.Fatalf("feed dropped: %v", fr)
		}
		if got := uint64(fr["seq"].(float64)); got != want {
			t.Fatalf("frame seq = %d, want %d", got, want)
		}
		want++
		credits <- struct{}{}
	}
	wg.Wait()

	code, resp := post(t, ts, "/v1/programs/authz/eval", map[string]any{"tenant": "acme", "query": "CanRead(u, d)", "program_version": 1})
	wantRows := oracleRows(t, authzProgram, []string{tenantAFacts}, "CanRead(u, d)")
	if got := respRows(t, resp); code != 200 || !sliceEq(got, wantRows) {
		t.Fatalf("after the hammer: %d rows %v, want %v", code, got, wantRows)
	}
	if _, stz := get(t, ts, "/v1/statz"); stz["programs"] != float64(1) {
		t.Errorf("statz programs = %v, want 1", stz["programs"])
	}
}
