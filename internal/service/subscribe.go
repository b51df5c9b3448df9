package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/db"
)

// Changefeed subscriptions: a tenant's materialized output, maintained
// incrementally across mutation batches (core.View over eval's
// counting/DRed maintenance), streamed as ordered diff frames over chunked
// NDJSON.
//
// One liveView exists per (tenant, program version) with at least one
// current subscriber: the first subscription materializes the view from the
// tenant's latest database version, every later mutation batch applies
// through it under the entry lock — so frame order is mutation order, and
// the seq numbers of one view's frames have no gaps — and the last
// subscriber to leave takes the view with it. What fans out under the lock
// is the unrendered diff; each subscriber's own stream renders its frames.
// Subscribers are buffered channels; a subscriber whose buffer is full when
// a diff fans out is dropped with a typed slow_consumer error frame rather
// than letting one stalled reader block the entry lock or grow queues
// without bound.

// subscriberBuffer is the per-subscriber frame buffer: how many undelivered
// diff frames a consumer may fall behind before it is dropped.
const subscriberBuffer = 16

// viewFrame is one NDJSON changefeed frame. The first frame of every
// subscription is a snapshot (the full materialized output, sorted);
// subsequent frames carry the exact net output diff of one mutation batch
// in canonical order. Seq increments per applied batch on the view,
// DBVersion is the tenant database version the frame reflects.
type viewFrame struct {
	Seq       uint64   `json:"seq"`
	DBVersion int      `json:"db_version"`
	Snapshot  bool     `json:"snapshot,omitempty"`
	Facts     []string `json:"facts,omitempty"`
	Added     []string `json:"added,omitempty"`
	Removed   []string `json:"removed,omitempty"`
}

// viewUpdate is what a subscriber's stream renders into one frame: an applied
// batch as it fanned out — the frame's numbers and its unrendered diff — or,
// first, the view's whole output at registration (snapshot non-nil).
type viewUpdate struct {
	seq       uint64
	dbVersion int
	diff      core.DatabaseDiff
	snapshot  *db.Database
}

// frame renders u under the entry's symbol table.
func (e *programEntry) frame(u viewUpdate) viewFrame {
	f := viewFrame{Seq: u.seq, DBVersion: u.dbVersion}
	if u.snapshot != nil {
		f.Snapshot, f.Facts = true, e.renderFacts(u.snapshot.Facts(), true)
	} else {
		f.Added, f.Removed = e.renderFacts(u.diff.Added, false), e.renderFacts(u.diff.Removed, false)
	}
	return f
}

// liveView is one maintained materialization feeding subscribers: the
// per-tenant incremental counterpart of a programVersion. Guarded by the
// entry mutex.
type liveView struct {
	pv        *programVersion
	view      *core.View
	seq       uint64
	dbVersion int
	subs      map[*subscriber]bool
}

// subscriber is one changefeed consumer. ch is closed (after reason is set)
// by the fan-out path under the entry mutex — the close is the
// happens-before edge that lets the handler read reason safely.
type subscriber struct {
	ch     chan viewUpdate
	reason string // "" = live; "slow_consumer" / "view_error" after close
}

// failLocked marks the subscriber dead and closes its channel; callers hold
// the entry mutex.
func (sub *subscriber) failLocked(reason string) {
	sub.reason = reason
	close(sub.ch)
}

// dropSubLocked unregisters sub from lv and tears the view down with its
// last subscriber: nobody reads its frames, so later batches must not pay
// for maintaining it (nor pin its snapshots). The next subscription
// re-materializes from the tenant's latest version. Callers hold the entry
// mutex.
func (t *tenantState) dropSubLocked(lv *liveView, sub *subscriber) {
	delete(lv.subs, sub)
	if len(lv.subs) == 0 && t.views[lv.pv.version] == lv {
		delete(t.views, lv.pv.version)
	}
}

// broadcastLocked applies one mutation batch to every live view of the
// tenant and fans the resulting diffs out to their subscribers; callers hold
// the entry mutex. A view that fails to apply (cancellation cannot happen
// here — maintenance runs under the background context — so this is a
// genuine error) tears down with view_error frames to its subscribers. A
// subscriber with no buffer space left is dropped with slow_consumer.
func (t *tenantState) broadcastLocked(dbVersion int, delta core.DatabaseDelta) {
	for ver, lv := range t.views {
		diff, _, err := lv.view.Apply(context.Background(), delta)
		if err != nil {
			for sub := range lv.subs {
				sub.failLocked("view_error")
			}
			delete(t.views, ver)
			continue
		}
		lv.seq++
		lv.dbVersion = dbVersion
		// The view holds the output of exactly the version /eval would now
		// evaluate: it refills the slot the batch just emptied.
		t.setMemoLocked(ver, lv.view.Output())
		u := viewUpdate{seq: lv.seq, dbVersion: dbVersion, diff: diff}
		for sub := range lv.subs {
			select {
			case sub.ch <- u:
			default:
				sub.failLocked("slow_consumer")
				t.dropSubLocked(lv, sub)
			}
		}
	}
}

// changefeed is what the subscription verb returns in place of a body: a
// subscriber registered on a live view, and the snapshot its stream opens
// with.
type changefeed struct {
	e     *programEntry
	t     *tenantState
	lv    *liveView
	sub   *subscriber
	first viewUpdate
}

// drop unregisters the subscriber again.
func (f *changefeed) drop() {
	f.e.mu.Lock()
	defer f.e.mu.Unlock()
	f.t.dropSubLocked(f.lv, f.sub)
}

// subscribe registers a new subscriber on the tenant's live view of pv,
// materializing the view on first use. The view's output is read under the
// lock that registered the subscriber, so the stream has no gap: every batch
// after the snapshot arrives on sub.ch with a consecutive seq.
func (e *programEntry) subscribe(ctx context.Context, tenant string, pv *programVersion) (*changefeed, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tenants[tenant]
	if t == nil {
		return nil, &RequestError{Status: 404, Code: "unknown_tenant",
			Err: fmt.Errorf("service: program %q has no tenant %q", e.name, tenant)}
	}
	lv := t.views[pv.version]
	if lv == nil {
		// Under the request's context: a client that gives up must not leave
		// an uncancellable evaluation running under the entry lock.
		view, _, err := pv.session.Materialize(ctx, t.versions[t.latest].DB(), core.MaintainOptions{})
		if err != nil {
			return nil, err
		}
		lv = &liveView{pv: pv, view: view, dbVersion: t.latest, subs: make(map[*subscriber]bool)}
		t.views[pv.version] = lv
		t.setMemoLocked(pv.version, view.Output())
	}
	sub := &subscriber{ch: make(chan viewUpdate, subscriberBuffer)}
	lv.subs[sub] = true
	first := viewUpdate{seq: lv.seq, dbVersion: lv.dbVersion, snapshot: lv.view.Output()}
	return &changefeed{e: e, t: t, lv: lv, sub: sub, first: first}, nil
}

// verbSubscribe opens a changefeed on the tenant's live view of a program
// version; the wrapper streams what it returns.
func (s *Server) verbSubscribe(ctx context.Context, e *programEntry, req *struct {
	Tenant         string `json:"tenant"`
	ProgramVersion int    `json:"program_version"`
}) (any, error) {
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		return nil, err
	}
	return e.subscribe(ctx, req.Tenant, pv)
}

// stream writes the snapshot frame and then one diff frame per mutation batch
// until the client disconnects or the subscriber is dropped.
func (f *changefeed) stream(s *Server, w http.ResponseWriter, r *http.Request) {
	defer f.drop()
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, fmt.Errorf("service: streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(f.e.frame(f.first))
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case u, open := <-f.sub.ch:
			if !open {
				// Dropped under the entry lock; reason is safe to read after
				// the close.
				_ = enc.Encode(map[string]string{
					"error":   f.sub.reason,
					"message": fmt.Sprintf("service: subscription dropped: %s", f.sub.reason),
				})
				flusher.Flush()
				return
			}
			_ = enc.Encode(f.e.frame(u))
			flusher.Flush()
		}
	}
}
