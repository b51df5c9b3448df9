package minimize

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/parser"
)

// tripCtx is a context whose Err turns non-nil on its trip-th call and stays
// so: a cancellation that lands at a known point of a procedure's poll
// sequence, with no timing involved.
type tripCtx struct {
	context.Context
	calls, trip int
}

func (c *tripCtx) Err() error {
	if c.calls++; c.calls >= c.trip {
		return context.Canceled
	}
	return nil
}

var cancelRuns int

// TestMinimizeCanceledMidFlight cuts Program one poll later each time until
// a run gets through (runs shorten as they go: a cancelled call publishes
// the verdicts of the tests it completed). Each cut returns the typed error
// at the poll that saw it, and the run that gets through still produces the
// program an undisturbed run produces. Three of the five rules are
// redundant, but no rule θ-subsumes another, so the syntactic fast path
// forces no verdict: every containment verdict is a chase the context can
// cut.
func TestMinimizeCanceledMidFlight(t *testing.T) {
	// Verdicts and plans are shared process-wide by content address, and
	// this test needs cold ones: rename the predicates apart per run.
	cancelRuns++
	src := strings.ReplaceAll(`
		Gcz(x, z) :- Acz(x, z).
		Gcz(x, z) :- Gcz(x, y), Gcz(y, z).
		Gcz(x, z) :- Acz(x, y), Gcz(y, z).
		Gcz(x, z) :- Gcz(x, y), Acz(y, z).
		Gcz(x, z) :- Acz(x, y), Acz(y, z).
	`, "cz", fmt.Sprintf("mcz%d", cancelRuns))
	// The reference runs on an alpha-distinct copy, so it shares no verdict
	// table with the runs under test.
	ref, _, err := Program(context.Background(), parser.MustParseProgram(strings.ReplaceAll(src, "mcz", "mcr")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.ReplaceAll(ref.String(), "mcr", "mcz")

	wantCanceled := func(err error, ctx *tripCtx) {
		t.Helper()
		if !errors.Is(err, eval.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want eval.ErrCanceled wrapping context.Canceled", err)
		}
		if ctx.calls != ctx.trip {
			t.Fatalf("context polled %d times, tripped at %d: work continued past the poll that saw the cancellation", ctx.calls, ctx.trip)
		}
	}
	p := parser.MustParseProgram(src)
	// Trip inside the first containment test: nothing completed, so nothing
	// may be published.
	published := chase.VerdictStoreStats().Verdicts
	ctx := &tripCtx{Context: context.Background(), trip: 3}
	_, _, err = Program(ctx, p, Options{})
	wantCanceled(err, ctx)
	if now := chase.VerdictStoreStats().Verdicts; now != published {
		t.Fatalf("minimization canceled inside its first test published %d verdicts", now-published)
	}
	for trip := 4; ; trip++ {
		ctx := &tripCtx{Context: context.Background(), trip: trip}
		min, _, err := Program(ctx, p, Options{})
		if err == nil {
			if trip < 8 {
				t.Fatalf("minimization finished within %d polls: too small to be cut mid-flight", trip)
			}
			if min.String() != want {
				t.Fatalf("after %d canceled runs the minimized program is\n%s\nwant\n%s", trip-3, min, want)
			}
			return
		}
		wantCanceled(err, ctx)
	}
}
