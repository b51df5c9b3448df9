package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// newOracleSession prepares a program exactly as a one-shot library caller
// would.
func newOracleSession(p *ast.Program) (*eval.Prepared, error) {
	return eval.Prepare(p)
}

const authzProgram = `
	Member(u, g) :- Direct(u, g).
	Member(u, g) :- Member(u, h), Subgroup(h, g).
	HasRole(u, r) :- Member(u, g), Grant(g, r).
	CanRead(u, d) :- HasRole(u, r), Allows(r, d).
`

const tenantAFacts = `
	Direct("ann", "eng").
	Subgroup("eng", "staff").
	Grant("staff", "viewer").
	Allows("viewer", "handbook").
`

const tenantAFacts2 = `
	Grant("eng", "editor").
	Allows("editor", "designdoc").
`

const tenantBFacts = `
	Direct("bob", "ops").
	Subgroup("ops", "staff").
	Grant("staff", "viewer").
	Allows("viewer", "runbook").
`

// post issues a JSON request and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, path, buf)
}

// postRaw is post for a body sent byte for byte.
func postRaw(t *testing.T, ts *httptest.Server, path string, buf []byte) (int, map[string]any) {
	t.Helper()
	code, out, err := postErr(ts, path, buf)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return code, out
}

// postErr is postRaw for goroutines other than the test's own: failures come
// back as an error instead of through t.Fatal.
func postErr(ts *httptest.Server, path string, buf []byte) (int, map[string]any, error) {
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, out, nil
}

func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

// oracleRows computes, through one-shot library calls, the formatted sorted
// rows the service must return for query over program+facts — parsing
// program then fact sets in the same order the service did, so symbols
// intern to the same constants.
func oracleRows(t *testing.T, program string, factSets []string, query string) []string {
	t.Helper()
	syms := ast.NewSymbolTable()
	res, err := parser.ParseWithSymbols(program, syms)
	if err != nil {
		t.Fatal(err)
	}
	d := db.New()
	for _, fs := range factSets {
		fres, err := parser.ParseWithSymbols(fs, syms)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fres.Facts {
			d.AddTuple(f.Pred, f.Args)
		}
	}
	atom, err := parser.ParseAtomWithSymbols(query, syms)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newOracleSession(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(d, atom)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = ast.FormatConst(c, syms)
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

// respRows flattens a JSON rows payload to "a,b" strings (already sorted by
// the server).
func respRows(t *testing.T, resp map[string]any) []string {
	t.Helper()
	raw, ok := resp["rows"].([]any)
	if !ok {
		t.Fatalf("response has no rows: %v", resp)
	}
	out := make([]string, len(raw))
	for i, r := range raw {
		cells := r.([]any)
		parts := make([]string, len(cells))
		for j, c := range cells {
			parts[j] = c.(string)
		}
		out[i] = strings.Join(parts, ",")
	}
	return out
}

// TestServeE2ETwoTenants is the acceptance scenario: two tenants issue
// concurrent eval, minimize and compare requests over frozen snapshots of
// different database versions of one named program, and every result is
// byte-identical to a one-shot library call. Run under -race in CI.
func TestServeE2ETwoTenants(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram})
	if code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	// A redundant second version for compare: duplicate atom in HasRole.
	redundant := strings.Replace(authzProgram, "Grant(g, r).", "Grant(g, r), Grant(g, r).", 1)
	code, resp = post(t, ts, "/v1/programs/authz", map[string]any{"source": redundant})
	if code != 200 || resp["version"].(float64) != 2 {
		t.Fatalf("register v2: %d %v", code, resp)
	}

	if code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts acme: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts2}); code != 200 {
		t.Fatalf("facts acme v2: %d %v", code, resp)
	}
	if v := resp["db_version"].(float64); v != 2 {
		t.Fatalf("acme db_version = %v, want 2", v)
	}
	if code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "globex", "assert": tenantBFacts}); code != 200 {
		t.Fatalf("facts globex: %d %v", code, resp)
	}

	query := "CanRead(u, d)"
	wantAcmeV1 := oracleRows(t, authzProgram, []string{tenantAFacts}, query)
	wantAcmeV2 := oracleRows(t, authzProgram, []string{tenantAFacts, tenantAFacts2}, query)
	// globex facts intern after acme's in the shared entry table; the
	// oracle mirrors that by interning all fact sets, building only globex's.
	wantGlobex := oracleRowsSubset(t, authzProgram, []string{tenantAFacts, tenantAFacts2}, tenantBFacts, query)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 4 {
				case 0: // acme, pinned old snapshot version
					code, resp := post(t, ts, "/v1/programs/authz/eval",
						map[string]any{"tenant": "acme", "query": query, "db_version": 1})
					if code != 200 {
						errs <- fmt.Sprintf("eval acme v1: %d %v", code, resp)
						return
					}
					if got := respRows(t, resp); !equalStrings(got, wantAcmeV1) {
						errs <- fmt.Sprintf("acme v1 rows = %v, want %v", got, wantAcmeV1)
					}
				case 1: // acme, latest
					code, resp := post(t, ts, "/v1/programs/authz/eval",
						map[string]any{"tenant": "acme", "query": query})
					if code != 200 {
						errs <- fmt.Sprintf("eval acme: %d %v", code, resp)
						return
					}
					if got := respRows(t, resp); !equalStrings(got, wantAcmeV2) {
						errs <- fmt.Sprintf("acme rows = %v, want %v", got, wantAcmeV2)
					}
				case 2: // globex
					code, resp := post(t, ts, "/v1/programs/authz/eval",
						map[string]any{"tenant": "globex", "query": query})
					if code != 200 {
						errs <- fmt.Sprintf("eval globex: %d %v", code, resp)
						return
					}
					if got := respRows(t, resp); !equalStrings(got, wantGlobex) {
						errs <- fmt.Sprintf("globex rows = %v, want %v", got, wantGlobex)
					}
				case 3: // minimize v2 and compare v1 vs v2
					code, resp := post(t, ts, "/v1/programs/authz/minimize",
						map[string]any{"program_version": 2})
					if code != 200 {
						errs <- fmt.Sprintf("minimize: %d %v", code, resp)
						return
					}
					if removed := resp["atoms_removed"].(float64); removed < 1 {
						errs <- fmt.Sprintf("minimize removed %v atoms, want ≥ 1", removed)
					}
					code, resp = post(t, ts, "/v1/programs/authz/compare",
						map[string]any{"version_a": 1, "version_b": 2})
					if code != 200 {
						errs <- fmt.Sprintf("compare: %d %v", code, resp)
						return
					}
					if eq := resp["equivalent"].(bool); !eq {
						errs <- "compare: v1 and v2 not equivalent"
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// statz reflects the traffic and the shared stores.
	code, stz := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, stz)
	}
	if reqs := stz["requests"].(map[string]any)["total"].(float64); reqs < 10 {
		t.Fatalf("statz total requests = %v, want ≥ 10", reqs)
	}
}

// oracleRowsSubset is oracleRows with warm-up fact sets interned first (to
// mirror the server's shared symbol table) but only the final set loaded.
func oracleRowsSubset(t *testing.T, program string, warm []string, load string, query string) []string {
	t.Helper()
	syms := ast.NewSymbolTable()
	res, err := parser.ParseWithSymbols(program, syms)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range warm {
		if _, err := parser.ParseWithSymbols(fs, syms); err != nil {
			t.Fatal(err)
		}
	}
	fres, err := parser.ParseWithSymbols(load, syms)
	if err != nil {
		t.Fatal(err)
	}
	d := db.New()
	for _, f := range fres.Facts {
		d.AddTuple(f.Pred, f.Args)
	}
	atom, err := parser.ParseAtomWithSymbols(query, syms)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newOracleSession(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(d, atom)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = ast.FormatConst(c, syms)
		}
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeBudgetAndDeadline exercises the typed error mapping: an expired
// deadline returns 504 deadline_exceeded, an exhausted derived-fact budget
// returns 422 budget_exhausted — and neither poisons the shared stores: the
// same request re-issued without the budget succeeds with correct rows.
func TestServeBudgetAndDeadline(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A chain program whose closure is quadratic in the chain length —
	// enough derived facts for budgets and deadlines to bite.
	prog := "T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z).\n"
	var facts strings.Builder
	for i := 0; i < 220; i++ {
		fmt.Fprintf(&facts, "E(%d,%d).\n", i, i+1)
	}
	if code, resp := post(t, ts, "/v1/programs/chain", map[string]any{"source": prog}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/chain/facts", map[string]any{"tenant": "t1", "assert": facts.String()}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}

	// Derived-fact budget: the closure needs ~24k facts; 100 cannot do.
	code, resp := post(t, ts, "/v1/programs/chain/eval",
		map[string]any{"tenant": "t1", "budget": map[string]any{"max_derived": 100}})
	if code != 422 {
		t.Fatalf("budget eval: code %d (%v), want 422", code, resp)
	}
	if resp["error"] != "budget_exhausted" {
		t.Fatalf("budget error code = %v, want budget_exhausted", resp["error"])
	}

	// Deadline: 0 < timeout < closure time. A 1ms budget expires during
	// the fixpoint (the closure takes well over 1ms on any hardware this
	// runs on).
	code, resp = post(t, ts, "/v1/programs/chain/eval",
		map[string]any{"tenant": "t1", "query": "T(0, x)", "budget": map[string]any{"timeout_ms": 1}})
	if code != 504 && code != 499 {
		t.Fatalf("deadline eval: code %d (%v), want 504/499", code, resp)
	}

	// No poisoning: the same query without a budget returns the full
	// closure from the same shared plan cache.
	code, resp = post(t, ts, "/v1/programs/chain/eval",
		map[string]any{"tenant": "t1", "query": "T(0, x)"})
	if code != 200 {
		t.Fatalf("clean eval after cancellation: %d %v", code, resp)
	}
	if rows := respRows(t, resp); len(rows) != 220 {
		t.Fatalf("clean eval rows = %d, want 220", len(rows))
	}
}

// TestStatzReportsPlanCache pins /statz's plan_cache to the process-wide
// plan cache every session prepares through, and verdict_store's keys.
func TestStatzReportsPlanCache(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/minimize", map[string]any{}); code != 200 {
		t.Fatalf("minimize: %d %v", code, resp)
	}

	code, stz := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, stz)
	}
	want := core.PlanCacheStats()
	if want.Entries == 0 || want.Misses == 0 {
		t.Fatalf("plan cache saw no traffic: %+v", want)
	}
	pc := stz["plan_cache"].(map[string]any)
	got := eval.CacheStats{Entries: int(pc["entries"].(float64)), Hits: uint64(pc["hits"].(float64)),
		Misses: uint64(pc["misses"].(float64)), Evictions: uint64(pc["evictions"].(float64))}
	if got != want {
		t.Fatalf("statz plan_cache = %+v, want core.PlanCacheStats() %+v", got, want)
	}
	// The verdict store reports evictions, like the plan cache.
	var keys []string
	for k := range stz["verdict_store"].(map[string]any) {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"evictions", "hits", "lookups", "programs", "verdicts"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("statz verdict_store keys = %v, want %v", keys, want)
	}
}

// TestMinimizeKeepsVersionsVariables: two names registered with
// alpha-renamed twins share a cached plan, and each one's /minimize answers
// in its own variables.
func TestMinimizeKeepsVersionsVariables(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	twins := []struct{ name, src, want string }{
		{"a", "T(x,y) :- E(x,y), E(x,w).", "T(x, y) :- E(x, y)."},
		{"b", "T(p,q) :- E(p,q), E(p,r).", "T(p, q) :- E(p, q)."},
	}
	for _, tw := range twins {
		if code, resp := post(t, ts, "/v1/programs/"+tw.name, map[string]any{"source": tw.src}); code != 200 {
			t.Fatalf("register %s: %d %v", tw.name, code, resp)
		}
	}
	for _, tw := range twins {
		code, resp := post(t, ts, "/v1/programs/"+tw.name+"/minimize", map[string]any{})
		if code != 200 {
			t.Fatalf("minimize %s: %d %v", tw.name, code, resp)
		}
		if got := strings.TrimSpace(resp["program"].(string)); got != tw.want {
			t.Fatalf("minimize %s = %q, want %q", tw.name, got, tw.want)
		}
	}
}

// TestStratifiedMinimizeAndCompare: /minimize takes a program with stratified
// negation and answers what core.MinimizeProgram does, while /compare — an
// exact test — answers 422 negation_unsupported when either version has
// negation: stratified × stratified, and pure × stratified, a pair the
// encoded test cannot refute (v1 contains v2 by a case split on C).
func TestStratifiedMinimizeAndCompare(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	strat := "A(x) :- B(x), !C(x), !C(x).\nA(x) :- B(x), C(x).\n"
	for _, src := range []string{strat, "A(x) :- B(x).\n"} {
		if code, resp := post(t, ts, "/v1/programs/neg", map[string]any{"source": src}); code != 200 {
			t.Fatalf("register: %d %v", code, resp)
		}
	}
	code, resp := post(t, ts, "/v1/programs/neg/minimize", map[string]any{"program_version": 1})
	if code != 200 {
		t.Fatalf("minimize: %d %v", code, resp)
	}
	want, trace, err := core.MinimizeProgram(parser.MustParseProgram(strat), core.MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resp["program"] != want.String() || resp["atoms_removed"] != float64(trace.AtomsRemoved()) ||
		resp["rules_removed"] != float64(trace.RulesRemoved()) || trace.AtomsRemoved() != 1 {
		t.Fatalf("minimize = %v, want %q with %d atom(s) and %d rule(s) removed", resp, want, trace.AtomsRemoved(), trace.RulesRemoved())
	}
	for _, pair := range [][2]int{{1, 1}, {2, 1}, {1, 2}} {
		code, resp := post(t, ts, "/v1/programs/neg/compare", map[string]any{"version_a": pair[0], "version_b": pair[1]})
		if code != 422 || resp["error"] != "negation_unsupported" {
			t.Fatalf("compare v%d v%d: %d %v, want 422 negation_unsupported", pair[0], pair[1], code, resp)
		}
	}
}

// TestServeErrors pins the 404/400 envelope.
func TestServeErrors(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp := post(t, ts, "/v1/programs/nope/eval", map[string]any{"tenant": "t"})
	if code != 404 || resp["error"] != "unknown_program" {
		t.Fatalf("unknown program: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x :-"}); code != 400 || resp["error"] != "parse_error" {
		t.Fatalf("parse error: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x,y) :- E(x,y). E(1,2)."}); code != 400 || resp["error"] != "facts_in_program" {
		t.Fatalf("facts in program: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x,y) :- E(x,y)."}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "t", "assert": "T(x,y) :- E(x,y)."}); code != 400 || resp["error"] != "rules_in_facts" {
		t.Fatalf("rules in facts: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "ghost"}); code != 404 || resp["error"] != "unknown_tenant" {
		t.Fatalf("unknown tenant: %d %v", code, resp)
	}
	// Removed wire fields are unknown fields, not silently ignored.
	if code, resp = post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "t", "facts": "E(1,2)."}); code != 400 || resp["error"] != "bad_request" {
		t.Fatalf("removed \"facts\" alias: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "t", "budget": map[string]any{"workers": 2}}); code != 400 || resp["error"] != "bad_request" {
		t.Fatalf("removed budget.workers: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/subscriptions", map[string]any{"tenant": "t", "force_dred": true}); code != 400 || resp["error"] != "bad_request" {
		t.Fatalf("removed force_dred: %d %v", code, resp)
	}
	if code, resp = post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "t", "budget": map[string]any{"shards": 2}}); code != 400 || resp["error"] != "bad_request" {
		t.Fatalf("removed budget.shards: %d %v", code, resp)
	}
	// The body is one JSON value, read to its end and under a bound.
	if code, resp = postRaw(t, ts, "/v1/programs/p/facts", []byte(`{"tenant":"t"} trailing`)); code != 400 || resp["error"] != "bad_request" {
		t.Fatalf("data after the JSON value: %d %v", code, resp)
	}
	if code, resp = postRaw(t, ts, "/v1/programs/p/facts", []byte(`{"tenant":"t"}{"tenant":"u"}`)); code != 400 || resp["error"] != "bad_request" {
		t.Fatalf("second JSON value: %d %v", code, resp)
	}
	if code, resp = postRaw(t, ts, "/v1/programs/p/facts", []byte("{\"tenant\":\"t\"} \n\t")); code != 200 {
		t.Fatalf("trailing whitespace: %d %v", code, resp)
	}
	big := []byte(`{"tenant":"t","assert":"` + strings.Repeat(" ", maxBodyBytes) + `"}`)
	if code, resp = postRaw(t, ts, "/v1/programs/p/facts", big); code != 413 || resp["error"] != "body_too_large" {
		t.Fatalf("oversized body: %d %v", code, resp["error"])
	}
	if code, resp = postRaw(t, ts, "/v1/programs/p/subscriptions", big); code != 413 || resp["error"] != "body_too_large" {
		t.Fatalf("oversized subscription body: %d %v", code, resp["error"])
	}
}

// TestServeArityMismatch pins the two wire-reachable arity contradictions as
// typed 400s: a /facts batch against the tenant's existing relation, and a
// loaded relation against the program evaluated over it. Neither may move
// the tenant's version chain.
func TestServeArityMismatch(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, resp := post(t, ts, "/v1/programs/p", map[string]any{"source": "T(x,y) :- E(x,y)."}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "t", "assert": "E(1,2)."}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	for _, body := range []map[string]any{
		{"tenant": "t", "assert": "E(1,2,3)."},
		{"tenant": "t", "retract": "E(1)."},
		{"tenant": "fresh", "assert": "E(1,2). E(1,2,3)."},
	} {
		code, resp := post(t, ts, "/v1/programs/p/facts", body)
		if code != 400 || resp["error"] != "arity_mismatch" {
			t.Fatalf("%v: %d %v, want 400 arity_mismatch", body, code, resp)
		}
	}
	if code, resp := post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "fresh"}); code != 404 {
		t.Fatalf("rejected batch created a tenant version: %d %v", code, resp)
	}
	code, resp := post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "t", "assert": "E(2,3)."})
	if code != 200 || resp["db_version"] != float64(2) {
		t.Fatalf("version chain moved by rejected batches: %d %v", code, resp)
	}

	// The halves of a batch are checked separately: retracting E/3 from a
	// tenant with no E is a no-op at any arity, beside an assert of E/2 too.
	code, resp = post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "cross", "assert": "E(1,2).", "retract": "E(1,2,3)."})
	if code != 200 || resp["db_version"] != float64(1) {
		t.Fatalf("cross-half batch: %d %v, want 200 at version 1", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "cross", "query": "T(1, y)"}); code != 200 {
		t.Fatalf("eval after cross-half batch: %d %v", code, resp)
	}

	// A query or goal atom contradicting the program (T/2) or the input (E/2)
	// is a 400 before any evaluation; a predicate neither knows answers empty.
	for path, body := range map[string]map[string]any{
		"/v1/programs/p/eval":    {"tenant": "t", "query": "T(1, 2, 3)"},
		"/v1/programs/p/explain": {"tenant": "t", "fact": "E(1, 2, 3)"},
	} {
		code, resp := post(t, ts, path, body)
		if code != 400 || resp["error"] != "arity_mismatch" {
			t.Fatalf("%s %v: %d %v, want 400 arity_mismatch", path, body, code, resp)
		}
	}
	if code, resp := post(t, ts, "/v1/programs/p/eval", map[string]any{"tenant": "t", "query": "Nope(1, 2, 3)"}); code != 200 || len(resp["rows"].([]any)) != 0 {
		t.Fatalf("query of an unknown predicate: %d %v, want 200 with no rows", code, resp)
	}

	// T/3 loads fine (the tenant has no T yet) but contradicts the head T/2.
	if code, resp := post(t, ts, "/v1/programs/p/facts", map[string]any{"tenant": "u", "assert": "T(1,2,3). E(1,2)."}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	for path, body := range map[string]map[string]any{
		"/v1/programs/p/eval":          {"tenant": "u"},
		"/v1/programs/p/subscriptions": {"tenant": "u"},
		"/v1/programs/p/explain":       {"tenant": "u", "fact": "T(1, 2)"},
	} {
		code, resp := post(t, ts, path, body)
		if code != 400 || resp["error"] != "arity_mismatch" {
			t.Fatalf("%s over T/3: %d %v, want 400 arity_mismatch", path, code, resp)
		}
	}
}

// TestServeExplainCanceled: /explain evaluates under the request's context.
// A request whose client is already gone is a 499 that evaluated nothing, one
// canceled mid-fixpoint stops there — the handler returns, so no goroutine is
// left evaluating — and neither leaves anything behind: the same explanation
// asked again is served in full.
func TestServeExplainCanceled(t *testing.T) {
	s := New()
	h := s.Handler()
	do := func(ctx context.Context, path string, body map[string]any) (int, map[string]any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(raw)).WithContext(ctx))
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v in %q", path, err, rec.Body.String())
		}
		return rec.Code, resp
	}
	bg := context.Background()
	var facts strings.Builder
	for i := 0; i < 220; i++ {
		fmt.Fprintf(&facts, "E(%d,%d).\n", i, i+1)
	}
	if code, resp := do(bg, "/v1/programs/chain", map[string]any{"source": "T(x,y) :- E(x,y).\nT(x,z) :- E(x,y), T(y,z).\n"}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := do(bg, "/v1/programs/chain/facts", map[string]any{"tenant": "t", "assert": facts.String()}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	explain := map[string]any{"tenant": "t", "fact": "T(0, 220)"}
	firings := func() int {
		st, _ := s.evalTotals()
		return st.Firings
	}

	gone, cancel := context.WithCancel(bg)
	cancel()
	before := firings()
	if code, resp := do(gone, "/v1/programs/chain/explain", explain); code != 499 || resp["error"] != "canceled" {
		t.Fatalf("explain for a departed client: %d %v, want 499 canceled", code, resp)
	}
	if after := firings(); after != before {
		t.Fatalf("a request canceled before it started fired %d rules", after-before)
	}

	// T(0, 1500) is derived in the closure's last round: over a million facts
	// in, far beyond a millisecond (the 220 chain's 24k facts are not, on a
	// warm process).
	facts.Reset()
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&facts, "E(%d,%d).\n", i, i+1)
	}
	if code, resp := do(bg, "/v1/programs/chain/facts", map[string]any{"tenant": "long", "assert": facts.String()}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}
	short, cancel := context.WithTimeout(bg, time.Millisecond)
	defer cancel()
	if code, resp := do(short, "/v1/programs/chain/explain", map[string]any{"tenant": "long", "fact": "T(0, 1500)"}); code != 504 && code != 499 {
		t.Fatalf("explain past its deadline: %d %v, want 504/499", code, resp)
	}

	code, resp := do(bg, "/v1/programs/chain/explain", explain)
	if code != 200 || resp["found"] != true {
		t.Fatalf("clean explain after cancellation: %d %v", code, resp)
	}
	if tree := resp["derivation"].(string); strings.Count(tree, "[input]") != 220 {
		t.Fatalf("proof of T(0, 220) has %d leaves, want the 220 edges:\n%s", strings.Count(tree, "[input]"), tree)
	}
}

// TestServeVetAndExplain covers the two read-side endpoints.
func TestServeVetAndExplain(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}

	code, resp := post(t, ts, "/v1/programs/authz/vet", map[string]any{})
	if code != 200 {
		t.Fatalf("vet: %d %v", code, resp)
	}
	if resp["errors"].(bool) {
		t.Fatalf("vet reported errors on a clean program: %v", resp)
	}
	if _, has := resp["termination_class"]; has {
		t.Fatalf("tgd-free program reported a termination class: %v", resp)
	}

	// A tgd-bearing source additionally reports the set's termination class
	// and every diagnostic names its pass.
	if code, resp := post(t, ts, "/v1/programs/terminating", map[string]any{
		"source": "Out(y) :- Q(y).\nP(x, y) -> Q(y).\nQ(y) -> R(y, z).",
	}); code != 200 {
		t.Fatalf("register tgds: %d %v", code, resp)
	}
	code, resp = post(t, ts, "/v1/programs/terminating/vet", map[string]any{})
	if code != 200 {
		t.Fatalf("vet tgds: %d %v", code, resp)
	}
	if got := resp["termination_class"]; got != "weakly-acyclic" {
		t.Fatalf("termination_class = %v, want weakly-acyclic", got)
	}
	for _, dj := range resp["diagnostics"].([]any) {
		d := dj.(map[string]any)
		if d["pass"] == "" {
			t.Fatalf("diagnostic without a pass name: %v", d)
		}
	}

	code, resp = post(t, ts, "/v1/programs/authz/explain",
		map[string]any{"tenant": "acme", "fact": `CanRead("ann", "handbook")`})
	if code != 200 {
		t.Fatalf("explain: %d %v", code, resp)
	}
	if !resp["found"].(bool) {
		t.Fatalf("explain did not find the derivation: %v", resp)
	}
	der := resp["derivation"].(string)
	if !strings.Contains(der, "CanRead") || !strings.Contains(der, "Member") {
		t.Fatalf("derivation missing expected atoms:\n%s", der)
	}

	code, resp = post(t, ts, "/v1/programs/authz/explain",
		map[string]any{"tenant": "acme", "fact": "CanRead(u, d)"})
	if code != 400 || resp["error"] != "fact_not_ground" {
		t.Fatalf("non-ground explain: %d %v", code, resp)
	}
}

// statField reads one integer stats field out of a decoded JSON payload.
func statField(t *testing.T, stats map[string]any, key string) int {
	t.Helper()
	v, ok := stats[key].(float64)
	if !ok {
		t.Fatalf("stats payload missing %q: %v", key, stats)
	}
	return int(v)
}

// TestStatzTotalsTwoTenants drives eval requests from two tenants, sums the
// per-request stats payloads, and asserts the /v1/statz eval totals match the
// sum exactly, key by key. Each tenant is read twice and evaluated once: the
// second read is answered from the memoized output, reports zero stats and is
// no eval.requests. Run under -race in CI: the per-session accounting and the
// statz read race against each other in production.
func TestStatzTotalsTwoTenants(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "acme", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts acme: %d %v", code, resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "globex", "assert": tenantBFacts}); code != 200 {
		t.Fatalf("facts globex: %d %v", code, resp)
	}

	sum := make(map[string]int)
	wantRows := oracleRows(t, authzProgram, []string{tenantAFacts}, "CanRead(u, d)")
	reqs := []struct {
		body     map[string]any
		memoized bool
	}{
		{map[string]any{"tenant": "acme", "query": "CanRead(u, d)"}, false},
		{map[string]any{"tenant": "globex"}, false},
		{map[string]any{"tenant": "acme", "query": "CanRead(u, d)", "budget": map[string]any{"timeout_ms": 60000}}, true},
		{map[string]any{"tenant": "globex", "query": "Member(u, g)", "budget": map[string]any{"max_derived": 1000}}, true},
	}
	evaluated := 0
	for _, req := range reqs {
		code, resp := post(t, ts, "/v1/programs/authz/eval", req.body)
		if code != 200 {
			t.Fatalf("eval %v: %d %v", req.body, code, resp)
		}
		stats, ok := resp["stats"].(map[string]any)
		if !ok {
			t.Fatalf("eval %v: no stats in %v", req.body, resp)
		}
		for k := range stats {
			sum[k] += statField(t, stats, k)
		}
		if ran := statField(t, stats, "rounds") > 0; ran == req.memoized {
			t.Fatalf("eval %v: stats %v, want memoized = %v", req.body, stats, req.memoized)
		}
		if !req.memoized {
			evaluated++
		}
		if req.body["tenant"] == "acme" {
			if got := respRows(t, resp); !sliceEq(got, wantRows) {
				t.Fatalf("rows diverge from oracle (memoized %v): got %v want %v", req.memoized, got, wantRows)
			}
		}
	}
	if sum["rounds"] == 0 {
		t.Fatal("no request ran the kernel")
	}

	code, resp := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, resp)
	}
	ev, ok := resp["eval"].(map[string]any)
	if !ok {
		t.Fatalf("statz has no eval section: %v", resp)
	}
	if got := int(ev["requests"].(float64)); got != evaluated {
		t.Fatalf("statz eval requests = %d, want the %d evaluations that ran", got, evaluated)
	}
	counters := resp["requests"].(map[string]any)
	if counters["evals"] != float64(len(reqs)) || counters["evals_memoized"] != float64(len(reqs)-evaluated) {
		t.Fatalf("statz requests = %v, want %d evals, %d of them memoized", counters, len(reqs), len(reqs)-evaluated)
	}
	totals, ok := ev["totals"].(map[string]any)
	if !ok {
		t.Fatalf("statz eval has no totals: %v", ev)
	}
	if len(totals) != len(sum) {
		t.Fatalf("statz totals has %d keys, the stats payloads %d", len(totals), len(sum))
	}
	for k := range sum {
		if got := statField(t, totals, k); got != sum[k] {
			t.Fatalf("statz totals[%q] = %d, want the per-request sum %d", k, got, sum[k])
		}
	}
}

func sliceEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// statzTotals fetches /v1/statz and returns its eval.totals object.
func statzTotals(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	code, resp := get(t, ts, "/v1/statz")
	if code != 200 {
		t.Fatalf("statz: %d %v", code, resp)
	}
	totals, ok := resp["eval"].(map[string]any)["totals"].(map[string]any)
	if !ok {
		t.Fatalf("statz has no eval totals: %v", resp)
	}
	return totals
}

// TestStatzEveryGroupMoves: each counter group of eval.Stats moves in
// /v1/statz when the thing it counts happens — an eval (fixpoint and stream
// groups; the same eval asked again moves requests.evals_memoized and none of
// them, the first after a batch moves them again), a minimize (reuse group:
// the program is already prepared, and each minimization phase runs on one
// plan, so its lookup is a hit; and the fixpoint counters of its containment
// chases, which the totals used to miss), an explain (a session request like any other: its
// goal-directed evaluation and proof read-back are counted), and a mutation
// batch on a subscribed tenant (maintain
// group). The chase group needs tgds and is pinned at the library level
// (internal/chase termination tests).
func TestStatzEveryGroupMoves(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	// Cleanup, not defer: the changefeed registers its own cleanup after this
	// one, so LIFO order disconnects the stream before the server drains.
	t.Cleanup(ts.Close)

	// Predicate names unique to this run: containment verdicts are memoized
	// process-wide by program content, and a reused verdict runs no chase.
	g, a := fmt.Sprintf("G%d", time.Now().UnixNano()), fmt.Sprintf("A%d", time.Now().UnixNano())
	src := fmt.Sprintf("%[1]s(x, z) :- %[2]s(x, z).\n%[1]s(x, z) :- %[1]s(x, y), %[1]s(y, z), %[2]s(y, w).", g, a)
	if code, resp := post(t, ts, "/v1/programs/tc", map[string]any{"source": src}); code != 200 {
		t.Fatalf("register: %d %v", code, resp)
	}
	facts := fmt.Sprintf("%[1]s(1, 2). %[1]s(2, 3). %[1]s(3, 4).", a)
	if code, resp := post(t, ts, "/v1/programs/tc/facts", map[string]any{"tenant": "t", "assert": facts}); code != 200 {
		t.Fatalf("facts: %d %v", code, resp)
	}

	before := statzTotals(t, ts)
	step := func(name string, do func(), moved ...string) {
		t.Helper()
		do()
		after := statzTotals(t, ts)
		for _, k := range moved {
			if statField(t, after, k) <= statField(t, before, k) {
				t.Errorf("%s did not move statz eval.totals.%s (%d → %d)", name, k, statField(t, before, k), statField(t, after, k))
			}
		}
		before = after
	}
	ok := func(path string, body map[string]any) func() {
		return func() {
			t.Helper()
			if code, resp := post(t, ts, path, body); code != 200 {
				t.Fatalf("%s: %d %v", path, code, resp)
			}
		}
	}

	step("eval", ok("/v1/programs/tc/eval", map[string]any{"tenant": "t"}),
		"rounds", "firings", "added", "strata_materialized", "bindings_pipelined")
	memoized := func() float64 {
		_, resp := get(t, ts, "/v1/statz")
		return resp["requests"].(map[string]any)["evals_memoized"].(float64)
	}
	hits, unmoved := memoized(), before
	step("memoized eval", ok("/v1/programs/tc/eval", map[string]any{"tenant": "t"}))
	if after := memoized(); after != hits+1 {
		t.Errorf("a repeated eval moved requests.evals_memoized %v → %v, want one more", hits, after)
	}
	if !reflect.DeepEqual(before, unmoved) {
		t.Errorf("a memoized eval moved statz eval.totals:\n%v\n%v", unmoved, before)
	}
	// A batch drops the memoized output: the next eval runs the kernel again.
	ok("/v1/programs/tc/facts", map[string]any{"tenant": "t", "assert": fmt.Sprintf("%s(4, 5).", a)})()
	step("eval after a batch", ok("/v1/programs/tc/eval", map[string]any{"tenant": "t"}),
		"rounds", "firings", "added")
	step("minimize", ok("/v1/programs/tc/minimize", map[string]any{}),
		"rounds", "firings", "prepare_hits", "verdicts_recomputed")
	requests := func() float64 {
		_, resp := get(t, ts, "/v1/statz")
		return resp["eval"].(map[string]any)["requests"].(float64)
	}
	reqs := requests()
	step("explain", ok("/v1/programs/tc/explain", map[string]any{"tenant": "t", "fact": fmt.Sprintf("%s(1, 4)", g)}),
		"rounds", "firings", "added", "bindings_pipelined")
	if after := requests(); after != reqs+1 {
		t.Errorf("explain moved statz eval.requests %v → %v, want one more", reqs, after)
	}
	f := subscribe(t, ts, "tc", map[string]any{"tenant": "t"})
	f.next(t) // snapshot frame: the view is materialized and registered
	step("facts batch on a subscribed tenant", ok("/v1/programs/tc/facts", map[string]any{"tenant": "t", "retract": fmt.Sprintf("%s(2, 3).", a)}),
		"applies", "overdeleted", "relations_frozen", "tuples_copied")
}
