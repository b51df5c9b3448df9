package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
)

// The memoized output (evalMemo, service.go) is tested against a server that
// never memoized: every /eval body in this file is compared byte for byte
// with freshBody, which evaluates the same (program version, database
// version) with a session of its own over a private copy of the facts.

// authzProgramV2 derives one predicate more than authzProgram, so the two
// program versions of a tenant never share an output.
const authzProgramV2 = authzProgram + "Reader(u) :- CanRead(u, d).\n"

// wire encodes v the way writeJSON does.
func wire(v any) string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // strings and slices of strings: cannot fail
	return strings.TrimSpace(buf.String())
}

// freshBody is what /eval must answer under "rows" (query non-empty) or
// "facts" for program version pv over the tenant's database version dbv:
// evaluated here by a session of its own over a private copy of the snapshot's
// facts, sharing no relation, index or output with anything the server holds.
// It is safe on goroutines other than the test's.
func freshBody(s *Server, program, tenant string, pv, dbv int, query string) (string, error) {
	e, err := s.known(program)
	if err != nil {
		return "", err
	}
	pve, err := e.versionEntry(pv)
	if err != nil {
		return "", err
	}
	_, snap, _, err := e.snapshot(tenant, dbv)
	if err != nil {
		return "", err
	}
	sess, err := core.NewSession(pve.prog)
	if err != nil {
		return "", err
	}
	out, _, err := sess.Eval(context.Background(), db.FromFacts(snap.DB().Facts()))
	if err != nil {
		return "", err
	}
	if query == "" {
		return wire(e.renderFacts(out.Facts(), true)), nil
	}
	atom, err := e.parseAtom(query)
	if err != nil {
		return "", err
	}
	return wire(e.renderRows(db.Select(out, atom))), nil
}

// evalResponse is an /eval response with its result left as sent.
type evalResponse struct {
	ProgramVersion int             `json:"program_version"`
	DBVersion      int             `json:"db_version"`
	Rows           json.RawMessage `json:"rows"`
	Facts          json.RawMessage `json:"facts"`
	Stats          map[string]any  `json:"stats"`
	Error          string          `json:"error"`
	Message        string          `json:"message"`
}

// memoized reports whether the response was answered from a memoized output:
// such a request ran no round.
func (r evalResponse) memoized() bool { return r.Stats["rounds"] == float64(0) }

// evalRaw posts one /eval; safe on goroutines other than the test's.
func evalRaw(ts *httptest.Server, program string, body map[string]any) (int, evalResponse, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, evalResponse{}, err
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/programs/"+program+"/eval", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, evalResponse{}, err
	}
	defer resp.Body.Close()
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, out, nil
}

// checkEval posts one /eval and compares its result with freshBody of the
// versions the response names. It returns the response, or an error naming
// the divergence; safe on goroutines other than the test's.
func checkEval(s *Server, ts *httptest.Server, program string, body map[string]any) (evalResponse, error) {
	code, resp, err := evalRaw(ts, program, body)
	if err != nil || code != 200 {
		return resp, fmt.Errorf("eval %v: %d %s %s %v", body, code, resp.Error, resp.Message, err)
	}
	query, _ := body["query"].(string)
	want, err := freshBody(s, program, body["tenant"].(string), resp.ProgramVersion, resp.DBVersion, query)
	if err != nil {
		return resp, fmt.Errorf("eval %v: oracle: %v", body, err)
	}
	got, other := string(resp.Facts), resp.Rows
	if query != "" {
		got, other = string(resp.Rows), resp.Facts
	}
	if got != want || other != nil {
		return resp, fmt.Errorf("eval %v (program v%d, db v%d, memoized %v):\n got %s\nwant %s",
			body, resp.ProgramVersion, resp.DBVersion, resp.memoized(), got, want)
	}
	return resp, nil
}

// requestCounters fetches the requests object of /v1/statz.
func requestCounters(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	code, resp := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, resp)
	}
	return resp["requests"].(map[string]any)
}

// memoSlots counts the memoized outputs held under a program name — by one
// tenant, or with tenant == "" by all of them — and how many of them are not
// of their tenant's latest database version.
func memoSlots(t *testing.T, s *Server, program, tenant string) (slots, stale int) {
	t.Helper()
	e, err := s.known(program)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for name, ten := range e.tenants {
		if tenant != "" && name != tenant {
			continue
		}
		ten.memoMu.Lock()
		for _, m := range ten.memo {
			slots++
			if m.dbVersion != ten.latest {
				stale++
			}
		}
		ten.memoMu.Unlock()
	}
	return slots, stale
}

// randomAuthzFact draws one EDB fact of the authz programs over a small
// domain, so asserts and retracts keep hitting the same facts.
func randomAuthzFact(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf(`Direct("u%d", "g%d").`, rng.Intn(4), rng.Intn(4))
	case 1:
		return fmt.Sprintf(`Subgroup("g%d", "g%d").`, rng.Intn(4), rng.Intn(4))
	case 2:
		return fmt.Sprintf(`Grant("g%d", "r%d").`, rng.Intn(4), rng.Intn(3))
	default:
		return fmt.Sprintf(`Allows("r%d", "d%d").`, rng.Intn(3), rng.Intn(3))
	}
}

// randomAuthzBatch draws a /facts body for tenant: a few asserts, sometimes a
// retract.
func randomAuthzBatch(rng *rand.Rand, tenant string) map[string]any {
	body := map[string]any{"tenant": tenant}
	var asserts []string
	for n := 1 + rng.Intn(3); n > 0; n-- {
		asserts = append(asserts, randomAuthzFact(rng))
	}
	body["assert"] = strings.Join(asserts, " ")
	if rng.Intn(2) == 0 {
		body["retract"] = randomAuthzFact(rng)
	}
	return body
}

// randomAuthzEval draws an /eval body for tenant: either program version, the
// whole output or a query (unbound, half bound, fully bound, or over a
// predicate only version 2 derives), and with latest > 0 a pinned database
// version. The pin is in [oldest, latest], or — one in ten, once latest's
// retention window has slid past version 1 — below that window, and gone
// reports the latter.
func randomAuthzEval(rng *rand.Rand, tenant string, oldest, latest int) (body map[string]any, gone bool) {
	body = map[string]any{"tenant": tenant, "program_version": 1 + rng.Intn(2)}
	switch rng.Intn(5) {
	case 0:
		body["query"] = "CanRead(u, d)"
	case 1:
		body["query"] = fmt.Sprintf(`Member("u%d", g)`, rng.Intn(4))
	case 2:
		body["query"] = fmt.Sprintf(`CanRead("u%d", "d%d")`, rng.Intn(4), rng.Intn(3))
	case 3:
		body["query"] = "Reader(u)"
	}
	if latest > 0 {
		if below := latest - retainDBVersions; below > 0 && rng.Intn(10) == 0 {
			body["db_version"] = 1 + rng.Intn(below)
			return body, true
		}
		body["db_version"] = oldest + rng.Intn(latest-oldest+1)
	}
	return body, false
}

// oldestRetained is the oldest database version a tenant whose latest is
// latest still keeps.
func oldestRetained(latest int) int { return max(latest-retainDBVersions+1, 1) }

// checkGone posts one /eval whose db_version pin fell out of the tenant's
// retention window: it must be the typed 410 and carry no result.
func checkGone(ts *httptest.Server, program string, body map[string]any) error {
	code, resp, err := evalRaw(ts, program, body)
	if err != nil || code != 410 || resp.Error != "gone_version" || resp.Rows != nil || resp.Facts != nil {
		return fmt.Errorf("eval %v pinned below the retention window: %d %s %s rows=%s facts=%s %v",
			body, code, resp.Error, resp.Message, resp.Rows, resp.Facts, err)
	}
	return nil
}

// TestMemoDifferential: a seeded random interleaving of mutation batches,
// latest and pinned evals (whole output and queries) and subscriptions coming
// and going, on 3 tenants × 2 program versions — then concurrent readers
// while a writer mutates — answers every /eval exactly as a server without a
// memo would: a pin inside the tenant's retention window byte-identically, one
// below it with the typed 410 and no body. Run under -race by make
// race-service.
func TestMemoDifferential(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, src := range []string{authzProgram, authzProgramV2} {
		if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": src}); code != 200 {
			t.Fatalf("register: %d %v", code, resp)
		}
	}
	tenants := []string{"a", "b", "c"}
	latest := make(map[string]int)
	type viewKey struct {
		tenant string
		pv     int
	}
	feeds := make(map[viewKey]*feed)
	mutate := func(rng *rand.Rand, tenant string) {
		t.Helper()
		code, resp := post(t, ts, "/v1/programs/authz/facts", randomAuthzBatch(rng, tenant))
		if code != 200 {
			t.Fatalf("facts: %d %v", code, resp)
		}
		latest[tenant] = int(resp["db_version"].(float64))
		// Keep the tenant's feeds drained: a dropped slow consumer would take
		// its live view — one of the memo's writers — out of the test.
		for k, f := range feeds {
			if k.tenant == tenant {
				if fr := f.next(t); fr["error"] != nil || fr["db_version"] != resp["db_version"] {
					t.Fatalf("feed %v after batch %v: %v", k, resp, fr)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(27))
	for _, tenant := range tenants {
		mutate(rng, tenant)
	}

	hits, gones := 0, 0
	for i := 0; i < 400; i++ {
		tenant := tenants[rng.Intn(len(tenants))]
		switch op := rng.Intn(10); {
		case op < 3:
			mutate(rng, tenant)
		case op < 9:
			pinned := 0
			if op >= 7 {
				pinned = latest[tenant]
			}
			body, gone := randomAuthzEval(rng, tenant, oldestRetained(pinned), pinned)
			if gone {
				if err := checkGone(ts, "authz", body); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				gones++
				continue
			}
			resp, err := checkEval(s, ts, "authz", body)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if want, pin := latest[tenant], body["db_version"]; pin != nil {
				if resp.DBVersion != pin {
					t.Fatalf("step %d: eval %v answered db v%d", i, body, resp.DBVersion)
				}
			} else if resp.DBVersion != want {
				t.Fatalf("step %d: eval %v answered db v%d, latest is v%d", i, body, resp.DBVersion, want)
			}
			if resp.memoized() {
				hits++
			}
		default:
			k := viewKey{tenant, 1 + rng.Intn(2)}
			if f := feeds[k]; f != nil {
				f.cancel()
				delete(feeds, k)
				break
			}
			f := subscribe(t, ts, "authz", map[string]any{"tenant": k.tenant, "program_version": k.pv})
			if snap := f.next(t); snap["snapshot"] != true {
				t.Fatalf("step %d: want a snapshot frame, got %v", i, snap)
			}
			feeds[k] = f
		}
	}
	if hits == 0 || gones == 0 {
		t.Fatalf("of the interleaving's evals %d were answered from a memoized output and %d pinned below the window, want both", hits, gones)
	}
	if n, stale := memoSlots(t, s, "authz", ""); n > len(tenants)*2 || stale != 0 {
		t.Fatalf("%d memoized outputs (%d stale) for %d tenants × 2 program versions", n, stale, len(tenants))
	}

	// Readers race one writer. A response names the versions it answered, so
	// whichever side of a batch a read landed on, its oracle is exact. The
	// writer stages retainDBVersions−1 batches per tenant, so each tenant's
	// latest version at the start, the one readers pin, stays in the window
	// to the end; what readers pin below the window is gone already.
	start := make(map[string]int, len(tenants))
	for _, tenant := range tenants {
		if latest[tenant] <= retainDBVersions {
			t.Fatalf("tenant %s saw %d batches, the readers pin below a window of %d", tenant, latest[tenant], retainDBVersions)
		}
		start[tenant] = latest[tenant]
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tenant := tenants[rng.Intn(len(tenants))]
				pinned := 0
				if rng.Intn(4) == 0 {
					pinned = start[tenant]
				}
				body, gone := randomAuthzEval(rng, tenant, pinned, pinned)
				err := checkGone(ts, "authz", body)
				if !gone {
					_, err = checkEval(s, ts, "authz", body)
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}()
	}
	for i := 0; i < len(tenants)*(retainDBVersions-1); i++ {
		mutate(rng, tenants[i%len(tenants)])
	}
	close(stop)
	wg.Wait()
}

// TestMemoRetentionBound: after any number of mutate/eval rounds a program
// name holds at most tenants × program versions memoized outputs, every one
// of them of its tenant's latest database version; a batch leaves a tenant
// none but what its live views refilled. Pins read the oldest version the
// window keeps, and version 1, once the window has slid past it, is a 410.
func TestMemoRetentionBound(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, src := range []string{authzProgram, authzProgramV2} {
		if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": src}); code != 200 {
			t.Fatalf("register: %d %v", code, resp)
		}
	}
	tenants := []string{"a", "b", "c"}
	for _, tenant := range tenants {
		if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": tenant, "assert": tenantAFacts}); code != 200 {
			t.Fatalf("facts: %d %v", code, resp)
		}
	}
	// Tenant c is subscribed on program version 1.
	f := subscribe(t, ts, "authz", map[string]any{"tenant": "c", "program_version": 1})
	f.next(t)

	for i := 0; i < 200; i++ {
		tenant := tenants[i%len(tenants)]
		body := map[string]any{"tenant": tenant, "assert": fmt.Sprintf(`Direct("u%d", "eng").`, i)}
		if i%4 == 3 {
			body = map[string]any{"tenant": tenant, "retract": fmt.Sprintf(`Direct("u%d", "eng").`, i-3)}
		}
		code, resp := post(t, ts, "/v1/programs/authz/facts", body)
		if code != 200 {
			t.Fatalf("round %d facts: %d %v", i, code, resp)
		}
		want := 0
		if tenant == "c" {
			f.next(t)
			want = 1
		}
		if got, _ := memoSlots(t, s, "authz", tenant); got != want {
			t.Fatalf("round %d: tenant %s holds %d memoized outputs after a batch, want %d", i, tenant, got, want)
		}
		dbv := int(resp["db_version"].(float64))
		for _, eval := range []map[string]any{
			{"tenant": tenant, "program_version": 1},
			{"tenant": tenant, "program_version": 2, "query": "Reader(u)"},
			{"tenant": tenant, "program_version": 1, "db_version": max(dbv-1, 1)},
			{"tenant": tenant, "program_version": 2, "db_version": oldestRetained(dbv), "query": "CanRead(u, d)"},
			{"tenant": tenant, "program_version": 2},
		} {
			if code, resp, err := evalRaw(ts, "authz", eval); err != nil || code != 200 {
				t.Fatalf("round %d eval %v: %d %v %v", i, eval, code, resp, err)
			}
		}
		if dbv > retainDBVersions {
			if err := checkGone(ts, "authz", map[string]any{"tenant": tenant, "db_version": 1}); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		if n, stale := memoSlots(t, s, "authz", ""); n > len(tenants)*2 || stale != 0 {
			t.Fatalf("round %d: %d memoized outputs (%d stale), bound %d", i, n, stale, len(tenants)*2)
		}
	}
	if n, _ := memoSlots(t, s, "authz", ""); n != len(tenants)*2 {
		t.Fatalf("%d memoized outputs after the last round, want all %d filled", n, len(tenants)*2)
	}
}

// TestMemoBudgetAnswersAsUnmemoized: a max_derived the memoized output fits
// is answered from it; one it exceeds gets the 422 — code, error and message
// — of a server that never evaluated the snapshot before.
func TestMemoBudgetAnswersAsUnmemoized(t *testing.T) {
	boot := func() (*Server, *httptest.Server) {
		s := New()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
			t.Fatalf("register: %d %v", code, resp)
		}
		if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
			t.Fatalf("facts: %d %v", code, resp)
		}
		return s, ts
	}
	s, ts := boot()
	_, cold := boot()

	first, err := checkEval(s, ts, "authz", map[string]any{"tenant": "acme"})
	if err != nil {
		t.Fatal(err)
	}
	derived := int(first.Stats["added"].(float64))
	if derived < 2 {
		t.Fatalf("the program derived %d facts, the test needs a budget below that", derived)
	}

	fits := map[string]any{"tenant": "acme", "query": "CanRead(u, d)", "budget": map[string]any{"max_derived": derived}}
	resp, err := checkEval(s, ts, "authz", fits)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.memoized() {
		t.Fatalf("max_derived = %d, exactly what the memoized output derived, ran the kernel: %v", derived, resp.Stats)
	}

	before := requestCounters(t, ts)["evals_memoized"]
	for _, budget := range []int{derived - 1, 1} {
		body := map[string]any{"tenant": "acme", "query": "CanRead(u, d)", "budget": map[string]any{"max_derived": budget}}
		code, got, err := evalRaw(ts, "authz", body)
		if err != nil {
			t.Fatal(err)
		}
		wantCode, want, err := evalRaw(cold, "authz", body)
		if err != nil {
			t.Fatal(err)
		}
		if code != 422 || got.Error != "budget_exhausted" || code != wantCode || got.Error != want.Error || got.Message != want.Message {
			t.Fatalf("max_derived %d over a memoized output of %d derived facts: %d %q %q\na server that never memoized answers %d %q %q",
				budget, derived, code, got.Error, got.Message, wantCode, want.Error, want.Message)
		}
	}
	if after := requestCounters(t, ts)["evals_memoized"]; after != before {
		t.Fatalf("a refused budget moved requests.evals_memoized %v → %v", before, after)
	}
	// The refusals cost the slot nothing: the next read is still a hit.
	if resp, err := checkEval(s, ts, "authz", map[string]any{"tenant": "acme"}); err != nil || !resp.memoized() {
		t.Fatalf("eval after the refused budgets: memoized %v, %v", resp.memoized(), err)
	}
}

// TestMemoDeadContextAnswersAsUnmemoized: a request whose client is already
// gone is a 499 whether or not its snapshot has been evaluated before.
func TestMemoDeadContextAnswersAsUnmemoized(t *testing.T) {
	s := New()
	h := s.Handler()
	do := func(ctx context.Context, path string, body map[string]any) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(wire(body))).WithContext(ctx))
		return rec.Code, rec.Body.String()
	}
	bg := context.Background()
	if code, body := do(bg, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %s", code, body)
	}
	if code, body := do(bg, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %s", code, body)
	}
	gone, cancel := context.WithCancel(bg)
	cancel()
	eval := map[string]any{"tenant": "acme", "query": "CanRead(u, d)"}
	coldCode, cold := do(gone, "/v1/programs/authz/eval", eval)
	if code, body := do(bg, "/v1/programs/authz/eval", eval); code != 200 {
		t.Fatalf("eval: %d %s", code, body)
	}
	if n, _ := memoSlots(t, s, "authz", ""); n != 1 {
		t.Fatalf("%d memoized outputs after one eval", n)
	}
	code, body := do(gone, "/v1/programs/authz/eval", eval)
	if code != 499 || code != coldCode || body != cold {
		t.Fatalf("eval for a departed client over a memoized output: %d %s\nbefore it was memoized: %d %s", code, body, coldCode, cold)
	}
}

// TestMemoPinnedVersionNotStored: an /eval pinned to an older database
// version is answered by an evaluation of its own and leaves no memoized
// output, neither in an empty slot nor over the latest version's.
func TestMemoPinnedVersionNotStored(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	for _, facts := range []string{tenantAFacts, tenantAFacts2} {
		if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": facts}); code != 200 {
			t.Fatalf("facts: %d %v", code, resp)
		}
	}
	pinned := map[string]any{"tenant": "acme", "db_version": 1}
	for i := 0; i < 2; i++ {
		resp, err := checkEval(s, ts, "authz", pinned)
		if err != nil {
			t.Fatal(err)
		}
		if resp.memoized() || resp.DBVersion != 1 {
			t.Fatalf("pinned eval %d: db v%d, memoized %v", i, resp.DBVersion, resp.memoized())
		}
		if n, _ := memoSlots(t, s, "authz", ""); n != 0 {
			t.Fatalf("pinned eval %d of an older version left %d memoized outputs", i, n)
		}
	}
	if resp, err := checkEval(s, ts, "authz", map[string]any{"tenant": "acme"}); err != nil || resp.memoized() {
		t.Fatalf("first latest eval: memoized %v, %v", resp.memoized(), err)
	}
	if resp, err := checkEval(s, ts, "authz", pinned); err != nil || resp.memoized() {
		t.Fatalf("pinned eval beside a memoized latest: memoized %v, %v", resp.memoized(), err)
	}
	if n, stale := memoSlots(t, s, "authz", ""); n != 1 || stale != 0 {
		t.Fatalf("%d memoized outputs (%d stale), want the latest version's one", n, stale)
	}
	// Naming the latest version is reading the latest version.
	if resp, err := checkEval(s, ts, "authz", map[string]any{"tenant": "acme", "db_version": 2}); err != nil || !resp.memoized() {
		t.Fatalf("eval pinned to the latest version: memoized %v, %v", resp.memoized(), err)
	}
}

// TestLiveViewRefillsMemo: a subscribed tenant's /eval never runs a fixpoint.
// The view's materialisation fills the slot, every batch refills it with the
// maintained output, and what /eval then answers — whole output and query —
// is byte-identical to a fresh evaluation of the same snapshot.
func TestLiveViewRefillsMemo(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts + tenantAFacts2}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	f := subscribe(t, ts, "authz", map[string]any{"tenant": "acme"})
	f.next(t)
	kernel := func() (firings int, requests float64) {
		_, resp := get(t, ts, "/v1/statz")
		ev := resp["eval"].(map[string]any)
		return statField(t, ev["totals"].(map[string]any), "firings"), ev["requests"].(float64)
	}
	reads := func(when string) {
		t.Helper()
		firings, requests := kernel()
		hits := requestCounters(t, ts)["evals_memoized"].(float64)
		for _, body := range []map[string]any{
			{"tenant": "acme"},
			{"tenant": "acme", "query": "CanRead(u, d)"},
			{"tenant": "acme", "query": `Member("ann", g)`},
		} {
			resp, err := checkEval(s, ts, "authz", body)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if !resp.memoized() {
				t.Fatalf("%s: eval %v ran the kernel: %v", when, body, resp.Stats)
			}
		}
		if f2, r2 := kernel(); f2 != firings || r2 != requests {
			t.Fatalf("%s: three evals moved eval.totals.firings %d → %d, eval.requests %v → %v", when, firings, f2, requests, r2)
		}
		if after := requestCounters(t, ts)["evals_memoized"].(float64); after != hits+3 {
			t.Fatalf("%s: requests.evals_memoized %v → %v, want three more", when, hits, after)
		}
	}
	reads("after the snapshot frame")

	for i, batch := range []map[string]any{
		// A retraction through the recursive Member closure (DRed), an
		// assertion, and a batch that nets to nothing.
		{"tenant": "acme", "retract": `Subgroup("eng", "staff").`},
		{"tenant": "acme", "assert": `Subgroup("eng", "staff"). Direct("bob", "eng").`},
		{"tenant": "acme", "assert": `Direct("bob", "eng").`},
	} {
		firings, _ := kernel()
		if code, resp := post(t, ts, "/v1/programs/authz/facts", batch); code != 200 {
			t.Fatalf("batch %d: %d %v", i, code, resp)
		}
		if fr := f.next(t); fr["error"] != nil {
			t.Fatalf("batch %d: feed dropped: %v", i, fr)
		}
		if after, _ := kernel(); i < 2 && after == firings {
			t.Fatalf("batch %d: maintenance fired no rule", i)
		}
		reads(fmt.Sprintf("after batch %d", i))
	}
}

// TestVerbPanicIsTyped500: a verb that panics answers the typed 500 through
// the one error path, is counted, leaves no memoized output behind, and the
// connection it came in on serves the next request.
func TestVerbPanicIsTyped500(t *testing.T) {
	// The recovered stacks are the server's log, not the test's.
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s := New()
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("POST /boom", verb(s, nil, func(context.Context, *programEntry, *struct{}) (any, error) {
		panic("boom")
	}))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// do posts on the test server's client, reads the body to its end so the
	// connection can be reused, and reports whether this request reused one.
	do := func(path, body string) (code int, resp map[string]any, reused bool) {
		t.Helper()
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			"POST", ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer r.Body.Close()
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("%s: %v in %q", path, err, raw)
		}
		return r.StatusCode, resp, reused
	}
	wantPanics := func(n float64) {
		t.Helper()
		c := requestCounters(t, ts)
		if c["panics"] != n {
			t.Fatalf("requests.panics = %v, want %v (%v)", c["panics"], n, c)
		}
	}

	if code, resp, _ := do("/v1/programs/authz", `{"source":"T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z)."}`); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp, _ := do("/v1/programs/authz/facts", `{"tenant":"good","assert":"E(1,2). E(2,3)."}`); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	wantPanics(0)
	code, resp, _ := do("/boom", `{}`)
	if code != 500 || resp["error"] != "internal" || !strings.Contains(resp["message"].(string), "boom") {
		t.Fatalf("panicking verb: %d %v, want the typed 500 internal", code, resp)
	}
	wantPanics(1)
	code, resp, reused := do("/v1/programs/authz/eval", `{"tenant":"good","query":"T(1, y)"}`)
	if code != 200 || len(resp["rows"].([]any)) != 2 {
		t.Fatalf("eval after a panic: %d %v", code, resp)
	}
	if !reused {
		t.Fatal("the request after a panic needed a new connection: the panic cost the client its connection")
	}

	// A panic inside the evaluation itself: a program version whose session
	// has no plan dies in Session.EvalWith — on the miss path, before anything
	// is stored. The session itself is there for /statz to read.
	e, err := s.known("authz")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.versions[99] = &programVersion{version: 99, session: new(core.Session)}
	e.mu.Unlock()
	slots, _ := memoSlots(t, s, "authz", "good")
	errorsBefore := requestCounters(t, ts)["errors"].(float64)
	code, resp, _ = do("/v1/programs/authz/eval", `{"tenant":"good","program_version":99}`)
	if code != 500 || resp["error"] != "internal" {
		t.Fatalf("eval of a program version with no plan: %d %v, want the typed 500 internal", code, resp)
	}
	wantPanics(2)
	if after := requestCounters(t, ts)["errors"].(float64); after != errorsBefore+1 {
		t.Fatalf("requests.errors %v → %v, want the panic counted as one error", errorsBefore, after)
	}
	if left, _ := memoSlots(t, s, "authz", "good"); left != slots {
		t.Fatalf("an evaluation that panicked moved the tenant's memoized outputs %d → %d", slots, left)
	}
	if code, resp, reused := do("/v1/programs/authz/eval", `{"tenant":"good"}`); code != 200 || !reused {
		t.Fatalf("eval after a panicking eval: %d %v (connection reused: %v)", code, resp, reused)
	}
}
