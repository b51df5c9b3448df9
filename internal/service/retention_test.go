package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// A tenant keeps its latest retainDBVersions database versions (service.go):
// the tests here pin the window's bound under a long mutation run, what a pin
// on either side of it answers, and that a request holding a snapshot the
// window has since dropped still answers from it.

// TestVersionRetentionBound: 10,000 mutation batches on one tenant, with a
// live view subscribed and a goroutine reading pinned versions throughout,
// leave the tenant exactly its last retainDBVersions versions. Every pinned
// read is a 200 of the version it named or — only once that version has
// fallen out of the window — the typed 410, and the changefeed has no seq gap.
// Run under -race by make race-service.
func TestVersionRetentionBound(t *testing.T) {
	t.Run("window", testRetentionWindow)
	t.Run("in-flight", testInFlightReadOutlivesRetention)
}

func testRetentionWindow(t *testing.T) {
	const batches = 10000
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if _, _, _, err := s.RegisterProgram("authz", authzProgram); err != nil {
		t.Fatal(err)
	}
	first, _, err := s.LoadFacts("authz", "acme", tenantAFacts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.known("authz")
	if err != nil {
		t.Fatal(err)
	}
	pv, err := e.versionEntry(1)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := e.subscribe(context.Background(), "acme", pv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(feed.drop)

	// latest is the newest version staged, staging the newest one a batch in
	// flight may have staged: a pin answered 410 must be below staging's window.
	var latest, staging atomic.Int64
	latest.Store(int64(first))
	stop := make(chan struct{})
	var reads, gone atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(33))
		for {
			select {
			case <-stop:
				return
			default:
			}
			l := int(latest.Load())
			body, _ := randomAuthzEval(rng, "acme", oldestRetained(l), l)
			body["program_version"] = 1
			code, resp, err := evalRaw(ts, "authz", body)
			pin := body["db_version"].(int)
			switch {
			case err != nil:
				t.Errorf("pinned read %v: %v", body, err)
				return
			case code == 200 && resp.DBVersion == pin:
				reads.Add(1)
			case code == 410 && resp.Error == "gone_version" && pin < oldestRetained(int(staging.Load())):
				gone.Add(1)
			default:
				t.Errorf("pinned read %v with latest v%d: %d %s %s", body, latest.Load(), code, resp.Error, resp.Message)
				return
			}
		}
	}()

	for i := 0; i < batches; i++ {
		staging.Store(int64(first + i + 1))
		v, _, err := s.MutateFacts("authz", "acme",
			fmt.Sprintf(`Direct("u%d", "eng").`, i%50), fmt.Sprintf(`Direct("u%d", "eng").`, (i+25)%50))
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		latest.Store(int64(v))
		u, open := <-feed.sub.ch
		if !open || u.seq != uint64(i+1) || u.dbVersion != v {
			t.Fatalf("batch %d (db v%d): feed frame seq %d db v%d, open %v (dropped: %q)", i, v, u.seq, u.dbVersion, open, feed.sub.reason)
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 || gone.Load() == 0 {
		t.Fatalf("the reader saw %d answered pins and %d gone ones, want both", reads.Load(), gone.Load())
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	ten := e.tenants["acme"]
	if ten.latest != first+batches || len(ten.versions) != retainDBVersions {
		t.Fatalf("after %d batches: latest v%d, %d versions held, want v%d and %d", batches, ten.latest, len(ten.versions), first+batches, retainDBVersions)
	}
	for v := oldestRetained(ten.latest); v <= ten.latest; v++ {
		if ten.versions[v] == nil {
			t.Fatalf("version %d of the window [%d, %d] is gone", v, oldestRetained(ten.latest), ten.latest)
		}
	}
}

// heldCtx is a request context whose first Done call blocks until release.
// verbEval first looks at its context when it derives the budget's, right
// after it resolved its snapshot: a request under heldCtx is held in flight
// there, holding its *db.Snapshot and nothing else.
type heldCtx struct {
	context.Context
	once              sync.Once
	resolved, release chan struct{}
}

func (c *heldCtx) Done() <-chan struct{} {
	c.once.Do(func() {
		close(c.resolved)
		<-c.release
	})
	return c.Context.Done()
}

// testInFlightReadOutlivesRetention: a request that resolved database version
// v and is still running when mutations push v out of the window answers v's
// exact body — the map entry is gone, the snapshot the request holds is not.
func testInFlightReadOutlivesRetention(t *testing.T) {
	s := New()
	h := s.Handler()
	if _, _, _, err := s.RegisterProgram("authz", authzProgram); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.LoadFacts("authz", "acme", tenantAFacts+tenantAFacts2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshBody(s, "authz", "acme", 1, v, "")
	if err != nil {
		t.Fatal(err)
	}

	ctx := &heldCtx{Context: context.Background(), resolved: make(chan struct{}), release: make(chan struct{})}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/v1/programs/authz/eval", strings.NewReader(wire(map[string]any{"tenant": "acme", "db_version": v})))
		h.ServeHTTP(rec, req.WithContext(ctx))
	}()
	<-ctx.resolved
	// Each batch retracts a fact version v holds, so no later version's
	// output is v's.
	for i := 0; i < retainDBVersions; i++ {
		retract := []string{`Direct("ann", "eng").`, `Allows("editor", "designdoc").`}[i%2]
		if _, _, err := s.MutateFacts("authz", "acme", "", retract); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := s.known("authz")
	if _, _, _, err := e.snapshot("acme", v); err == nil || err.(*RequestError).Code != "gone_version" {
		t.Fatalf("after %d more batches version %d resolves: %v", retainDBVersions, v, err)
	}
	close(ctx.release)
	<-done

	var resp evalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || resp.DBVersion != v || string(resp.Facts) != want {
		t.Fatalf("in-flight read of version %d: %d db v%d %s\n got %s\nwant %s", v, rec.Code, resp.DBVersion, resp.Error, resp.Facts, want)
	}
}

// TestStatzCountsGoneVersions: a db_version pin below the tenant's window is
// the typed 410 on /eval and /explain alike, and moves requests.gone_versions;
// a version the tenant never had is still the 404, and does not.
func TestStatzCountsGoneVersions(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	for i := 0; i <= retainDBVersions; i++ {
		if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": fmt.Sprintf(`Direct("u%d", "eng").`, i)}); code != 200 {
			t.Fatalf("facts: %d %v", code, resp)
		}
	}
	counters := func() (gone, errs float64) {
		c := requestCounters(t, ts)
		return c["gone_versions"].(float64), c["errors"].(float64)
	}
	step := func(path string, body map[string]any, wantCode int, wantError string, moves float64) map[string]any {
		t.Helper()
		gone, errs := counters()
		code, resp := post(t, ts, path, body)
		if code != wantCode || resp["error"] != wantError {
			t.Fatalf("%s %v: %d %v, want %d %s", path, body, code, resp, wantCode, wantError)
		}
		if g2, e2 := counters(); g2 != gone+moves || e2 != errs+1 {
			t.Fatalf("%s %v moved requests.gone_versions %v → %v and errors %v → %v, want +%v and +1", path, body, gone, g2, errs, e2, moves)
		}
		return resp
	}

	latest := retainDBVersions + 1
	step("/v1/programs/authz/eval", map[string]any{"tenant": "acme", "db_version": latest + 1}, 404, "unknown_db_version", 0)
	evalGone := step("/v1/programs/authz/eval", map[string]any{"tenant": "acme", "db_version": 1}, 410, "gone_version", 1)
	step("/v1/programs/authz/explain", map[string]any{"tenant": "acme", "db_version": latest + 1, "fact": `Member("u0", "eng")`}, 404, "unknown_db_version", 0)
	explainGone := step("/v1/programs/authz/explain", map[string]any{"tenant": "acme", "db_version": 1, "fact": `Member("u0", "eng")`}, 410, "gone_version", 1)
	if explainGone["message"] != evalGone["message"] {
		t.Fatalf("a gone pin on /explain: %v\non /eval: %v", explainGone, evalGone)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/explain", map[string]any{"tenant": "acme", "db_version": 2, "fact": `Member("u0", "eng")`}); code != 200 || resp["found"] != true {
		t.Fatalf("explain pinned to the oldest version the window keeps: %d %v", code, resp)
	}
}
