package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"
)

// feed is one NDJSON changefeed connection. A reader goroutine pumps
// decoded frames into a channel so tests can apply deadlines; the channel
// closes when the stream ends.
type feed struct {
	resp   *http.Response
	cancel context.CancelFunc
	frames chan map[string]any
}

func subscribe(t *testing.T, ts *httptest.Server, program string, body map[string]any) *feed {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST",
		ts.URL+"/v1/programs/"+program+"/subscriptions", bytes.NewReader(buf))
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe: status %d: %v", resp.StatusCode, e)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe: content-type %q", ct)
	}
	f := &feed{resp: resp, cancel: cancel, frames: make(chan map[string]any, 64)}
	go func() {
		dec := json.NewDecoder(resp.Body)
		for {
			var m map[string]any
			if err := dec.Decode(&m); err != nil {
				close(f.frames)
				return
			}
			f.frames <- m
		}
	}()
	t.Cleanup(func() {
		f.cancel()
		f.resp.Body.Close()
	})
	return f
}

// next waits for the feed's next frame.
func (f *feed) next(t *testing.T) map[string]any {
	t.Helper()
	select {
	case m, ok := <-f.frames:
		if !ok {
			t.Fatal("changefeed closed")
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for changefeed frame")
	}
	return nil
}

// idle asserts the feed delivers nothing (tenant isolation).
func (f *feed) idle(t *testing.T) {
	t.Helper()
	select {
	case m := <-f.frames:
		t.Fatalf("unexpected frame: %v", m)
	case <-time.After(100 * time.Millisecond):
	}
}

func strs(v any) []string {
	raw, _ := v.([]any)
	out := make([]string, len(raw))
	for i, s := range raw {
		out[i] = s.(string)
	}
	return out
}

// evalFacts fetches a tenant's full materialized output through /eval — which
// on a subscribed tenant answers from the view's own output, so the body is
// first held against a fresh evaluation of the same snapshot (checkEval): the
// feed's oracle stays independent of the feed.
func evalFacts(t *testing.T, s *Server, ts *httptest.Server, program, tenant string) []string {
	t.Helper()
	resp, err := checkEval(s, ts, program, map[string]any{"tenant": tenant})
	if err != nil {
		t.Fatal(err)
	}
	var facts []string
	if err := json.Unmarshal(resp.Facts, &facts); err != nil {
		t.Fatalf("eval facts %s: %v", resp.Facts, err)
	}
	return facts
}

// diffStrings returns after∖before and before∖after, sorted.
func diffStrings(before, after []string) (added, removed []string) {
	b := make(map[string]bool, len(before))
	for _, s := range before {
		b[s] = true
	}
	a := make(map[string]bool, len(after))
	for _, s := range after {
		a[s] = true
		if !b[s] {
			added = append(added, s)
		}
	}
	for _, s := range before {
		if !a[s] {
			removed = append(removed, s)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// TestSubscriptionsTwoTenantsE2E is the changefeed acceptance scenario: two
// tenants hold subscriptions against one program; each mutation batch
// yields exactly one frame per subscriber of the mutated tenant — and none
// for the other — whose diff is exactly the net output change, in an order
// deterministic across subscribers; and a fresh subscription's snapshot
// equals the previous snapshot plus the streamed diffs. Run under -race in
// CI.
func TestSubscriptionsTwoTenantsE2E(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	// Cleanup, not defer: feeds register their own cleanups after this one,
	// so LIFO order disconnects the streams before the server waits for
	// connections to drain.
	t.Cleanup(ts.Close)

	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %v", resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "a", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts a: %v", resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "b", "assert": tenantBFacts}); code != 200 {
		t.Fatalf("facts b: %v", resp)
	}

	beforeA := evalFacts(t, s, ts, "authz", "a")
	beforeB := evalFacts(t, s, ts, "authz", "b")

	subA1 := subscribe(t, ts, "authz", map[string]any{"tenant": "a"})
	subA2 := subscribe(t, ts, "authz", map[string]any{"tenant": "a"})
	subB := subscribe(t, ts, "authz", map[string]any{"tenant": "b"})

	snapA1, snapA2, snapB := subA1.next(t), subA2.next(t), subB.next(t)
	for _, snap := range []map[string]any{snapA1, snapA2, snapB} {
		if snap["snapshot"] != true || snap["seq"].(float64) != 0 || snap["db_version"].(float64) != 1 {
			t.Fatalf("bad snapshot frame: %v", snap)
		}
	}
	// The snapshot is the same materialization /eval computes.
	if !reflect.DeepEqual(strs(snapA1["facts"]), beforeA) {
		t.Fatalf("snapshot a = %v\nwant %v", strs(snapA1["facts"]), beforeA)
	}
	if !reflect.DeepEqual(snapA2, snapA1) {
		t.Fatalf("subscribers disagree on snapshot:\n%v\n%v", snapA2, snapA1)
	}
	if !reflect.DeepEqual(strs(snapB["facts"]), beforeB) {
		t.Fatalf("snapshot b = %v\nwant %v", strs(snapB["facts"]), beforeB)
	}

	// Tenant a swaps handbook access for wiki access in one batch.
	code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{
		"tenant":  "a",
		"assert":  `Allows("viewer", "wiki").`,
		"retract": `Allows("viewer", "handbook").`,
	})
	if code != 200 || resp["db_version"].(float64) != 2 {
		t.Fatalf("mutate a: %d %v", code, resp)
	}
	afterA := evalFacts(t, s, ts, "authz", "a")
	wantAdded, wantRemoved := diffStrings(beforeA, afterA)

	fA1, fA2 := subA1.next(t), subA2.next(t)
	if fA1["seq"].(float64) != 1 || fA1["db_version"].(float64) != 2 || fA1["snapshot"] == true {
		t.Fatalf("bad diff frame: %v", fA1)
	}
	// Each predicate contributes one fact here, so the canonical frame
	// order and the string-sorted oracle order coincide — the diff is
	// checked exactly, order included.
	if !reflect.DeepEqual(strs(fA1["added"]), wantAdded) || !reflect.DeepEqual(strs(fA1["removed"]), wantRemoved) {
		t.Fatalf("diff = +%v -%v\nwant +%v -%v", strs(fA1["added"]), strs(fA1["removed"]), wantAdded, wantRemoved)
	}
	if len(wantAdded) != 2 || len(wantRemoved) != 2 {
		t.Fatalf("unexpected oracle diff size: +%v -%v", wantAdded, wantRemoved)
	}
	if !reflect.DeepEqual(fA2, fA1) {
		t.Fatalf("subscribers disagree on diff frame:\n%v\n%v", fA2, fA1)
	}
	subB.idle(t)

	// Tenant b loses bob's group membership: a retraction cascading through
	// the recursive Member closure down to CanRead.
	code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{
		"tenant":  "b",
		"retract": `Direct("bob", "ops").`,
	})
	if code != 200 || resp["db_version"].(float64) != 2 {
		t.Fatalf("mutate b: %d %v", code, resp)
	}
	afterB := evalFacts(t, s, ts, "authz", "b")
	wantAddedB, wantRemovedB := diffStrings(beforeB, afterB)
	fB := subB.next(t)
	if fB["seq"].(float64) != 1 || fB["db_version"].(float64) != 2 {
		t.Fatalf("bad diff frame: %v", fB)
	}
	gotRemovedB := append([]string(nil), strs(fB["removed"])...)
	sort.Strings(gotRemovedB)
	if len(strs(fB["added"])) != 0 || !reflect.DeepEqual(gotRemovedB, wantRemovedB) || len(wantAddedB) != 0 {
		t.Fatalf("diff b = +%v -%v\nwant +%v -%v", strs(fB["added"]), gotRemovedB, wantAddedB, wantRemovedB)
	}
	if len(wantRemovedB) != 5 {
		t.Fatalf("oracle removed %v, want the 5-fact cascade", wantRemovedB)
	}
	subA1.idle(t)

	// Exactness: a fresh subscription sees snapshot == old snapshot ± the
	// streamed diffs, at the view's current seq.
	subA3 := subscribe(t, ts, "authz", map[string]any{"tenant": "a"})
	snapA3 := subA3.next(t)
	if snapA3["seq"].(float64) != 1 || snapA3["db_version"].(float64) != 2 {
		t.Fatalf("bad late snapshot frame: %v", snapA3)
	}
	if !reflect.DeepEqual(strs(snapA3["facts"]), afterA) {
		t.Fatalf("late snapshot = %v\nwant %v", strs(snapA3["facts"]), afterA)
	}

	// The maintained view's work shows up in the accounted totals.
	if code, resp := get(t, ts, "/v1/statz"); code != 200 {
		t.Fatalf("statz: %v", resp)
	} else {
		totals := resp["eval"].(map[string]any)["totals"].(map[string]any)
		if totals["applies"].(float64) < 2 {
			t.Fatalf("statz applies = %v, want >= 2", totals["applies"])
		}
	}
}

// TestSubscriptionSlowConsumerDrop exercises the backpressure policy at the
// fan-out layer: a subscriber that stops draining is dropped — its channel
// closed with reason slow_consumer and its registration removed — after
// exactly subscriberBuffer undelivered frames, while the view itself stays
// live for the other consumer.
func TestSubscriptionSlowConsumerDrop(t *testing.T) {
	s := New()
	if _, _, _, err := s.RegisterProgram("authz", authzProgram); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MutateFacts("authz", "a", tenantAFacts, ""); err != nil {
		t.Fatal(err)
	}
	e, err := s.known("authz")
	if err != nil {
		t.Fatal(err)
	}
	pv, err := e.versionEntry(0)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	ten := e.tenants["a"]
	view, _, err := pv.session.Materialize(context.Background(), ten.versions[ten.latest].DB())
	if err != nil {
		e.mu.Unlock()
		t.Fatal(err)
	}
	lv := &liveView{pv: pv, view: view, dbVersion: ten.latest, subs: make(map[*subscriber]bool)}
	ten.views[pv.version] = lv
	slow := &subscriber{ch: make(chan viewUpdate, subscriberBuffer)}
	lv.subs[slow] = true
	// A consumer with room for every frame of the test keeps the view alive.
	other := &subscriber{ch: make(chan viewUpdate, subscriberBuffer+1)}
	lv.subs[other] = true
	e.mu.Unlock()

	// One more batch than the subscriber can buffer.
	for i := 0; i <= subscriberBuffer; i++ {
		if _, _, err := s.MutateFacts("authz", "a", fmt.Sprintf("Direct(\"u%d\", \"eng\").", i), ""); err != nil {
			t.Fatal(err)
		}
	}

	n := 0
drain:
	for {
		select {
		case f, ok := <-slow.ch:
			if !ok {
				break drain
			}
			if f.seq != uint64(n+1) {
				t.Fatalf("frame seq = %d, want %d", f.seq, n+1)
			}
			n++
		case <-time.After(5 * time.Second):
			t.Fatal("subscriber channel not closed after overflow")
		}
	}
	if n != subscriberBuffer {
		t.Fatalf("buffered frames = %d, want %d", n, subscriberBuffer)
	}
	if slow.reason != "slow_consumer" {
		t.Fatalf("reason = %q, want slow_consumer", slow.reason)
	}
	e.mu.Lock()
	if lv.subs[slow] {
		t.Fatal("dropped subscriber still registered")
	}
	still := ten.views[pv.version] == lv
	seq := lv.seq
	e.mu.Unlock()
	if !still || seq != uint64(subscriberBuffer+1) {
		t.Fatalf("view gone or stale: live=%v seq=%d", still, seq)
	}
}

// TestSubscriptionLastReaderTearsDownView: a view whose last subscriber left
// is not maintained any more — a later batch runs no Apply — and the next
// subscription starts over from the tenant's current facts.
func TestSubscriptionLastReaderTearsDownView(t *testing.T) {
	s := New()
	returned := make(chan struct{}, 1) // one send: the canceled subscription's handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/programs/authz/subscriptions" {
			select {
			case returned <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(ts.Close)
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %v", resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "a", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %v", resp)
	}
	applies := func() float64 {
		code, resp := get(t, ts, "/v1/statz")
		if code != 200 {
			t.Fatalf("statz: %v", resp)
		}
		return resp["eval"].(map[string]any)["totals"].(map[string]any)["applies"].(float64)
	}

	f := subscribe(t, ts, "authz", map[string]any{"tenant": "a"})
	if snap := f.next(t); snap["snapshot"] != true {
		t.Fatalf("want snapshot first, got %v", snap)
	}
	f.cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("subscription handler did not return after the client canceled")
	}

	before := applies()
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "a", "assert": `Allows("viewer", "wiki").`}); code != 200 {
		t.Fatalf("mutate: %v", resp)
	}
	if after := applies(); after != before {
		t.Fatalf("applies moved %v -> %v: a view with no subscriber was maintained", before, after)
	}

	again := subscribe(t, ts, "authz", map[string]any{"tenant": "a"})
	snap := again.next(t)
	if snap["snapshot"] != true || snap["seq"].(float64) != 0 || snap["db_version"].(float64) != 2 {
		t.Fatalf("bad snapshot frame after resubscribe: %v", snap)
	}
	if want := evalFacts(t, s, ts, "authz", "a"); !reflect.DeepEqual(strs(snap["facts"]), want) {
		t.Fatalf("snapshot after resubscribe = %v\nwant %v", strs(snap["facts"]), want)
	}
}

// TestSubscriptionDropSendsTypedErrorFrame covers the wire half of the
// backpressure policy: an HTTP subscriber whose channel is closed by the
// fan-out path receives a final typed error frame and then end-of-stream.
func TestSubscriptionDropSendsTypedErrorFrame(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %v", resp)
	}
	if code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "a", "assert": tenantAFacts}); code != 200 {
		t.Fatalf("facts: %v", resp)
	}
	f := subscribe(t, ts, "authz", map[string]any{"tenant": "a"})
	if snap := f.next(t); snap["snapshot"] != true {
		t.Fatalf("want snapshot first, got %v", snap)
	}

	// Drop the subscriber under the entry lock exactly as the fan-out path
	// does when its buffer overflows.
	e, err := s.known("authz")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	lv := e.tenants["a"].views[1]
	if lv == nil || len(lv.subs) != 1 {
		e.mu.Unlock()
		t.Fatalf("expected one live subscriber")
	}
	for sub := range lv.subs {
		sub.failLocked("slow_consumer")
		delete(lv.subs, sub)
	}
	e.mu.Unlock()

	errf := f.next(t)
	if errf["error"] != "slow_consumer" {
		t.Fatalf("error frame = %v", errf)
	}
	select {
	case m, ok := <-f.frames:
		if ok {
			t.Fatalf("frame after error frame: %v", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after error frame")
	}
}

// TestFactsEnvelope covers the mutation envelope: an assert batch, and a
// retract-only batch reaching /eval results.
func TestFactsEnvelope(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, resp := post(t, ts, "/v1/programs/authz", map[string]any{"source": authzProgram}); code != 200 {
		t.Fatalf("register: %v", resp)
	}

	code, resp := post(t, ts, "/v1/programs/authz/facts", map[string]any{"tenant": "a", "assert": tenantAFacts})
	if code != 200 || resp["db_version"].(float64) != 1 {
		t.Fatalf("assert: %d %v", code, resp)
	}

	code, resp = post(t, ts, "/v1/programs/authz/facts", map[string]any{
		"tenant": "a", "retract": `Allows("viewer", "handbook").`,
	})
	if code != 200 || resp["db_version"].(float64) != 2 {
		t.Fatalf("retract-only: %d %v", code, resp)
	}
	code, resp = post(t, ts, "/v1/programs/authz/eval", map[string]any{"tenant": "a", "query": "CanRead(u, d)"})
	if code != 200 {
		t.Fatalf("eval: %v", resp)
	}
	if rows := respRows(t, resp); len(rows) != 0 {
		t.Fatalf("CanRead after retract = %v, want none", rows)
	}
}
