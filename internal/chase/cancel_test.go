package chase

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// tripCtx is a context whose Err turns non-nil on its trip-th call and stays
// so (the pattern of eval/cancel_test.go): a cancellation that lands at a
// known point of a procedure's poll sequence, with no timing involved.
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

// freshNames rewrites the predicate suffix "cz" of src to one no earlier
// test or -count iteration has used: verdicts and plans are shared
// process-wide by content address, and these tests need cold ones.
func freshNames(src string) string {
	cancelRuns++
	return strings.ReplaceAll(src, "cz", fmt.Sprintf("cz%d", cancelRuns))
}

var cancelRuns int

func wantCanceled(t *testing.T, err error, ctx *tripCtx) {
	t.Helper()
	if !errors.Is(err, eval.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want eval.ErrCanceled wrapping context.Canceled", err)
	}
	if ctx.calls != ctx.trip {
		t.Fatalf("context polled %d times, tripped at %d: work continued past the poll that saw the cancellation", ctx.calls, ctx.trip)
	}
}

// TestCancelMidFlightThroughArgument cancels a diverging embedded-tgd chase
// and a containment test through the context argument alone — no session
// state carries a context — and checks that the call stops at the very poll
// that sees the cancellation (every chase round and every fixpoint round
// polls, so that bounds the rounds run after the trip by one), that it
// published no verdict, and that the same Checker and a Checker derived from
// it answer correctly afterwards under a live context.
func TestCancelMidFlightThroughArgument(t *testing.T) {
	res, err := parser.Parse(freshNames(`
		Gcz(x, z) :- Acz(x, z).
		Gcz(x, z) :- Gcz(x, y), Gcz(y, z), Acz(y, w).
		Gcz(x, w) :- Acz(x, y), Acz(y, z), Acz(z, w), Acz(w, v).
		Acz(x, y) -> Acz(y, z).
		Acz(1, 2).
	`))
	if err != nil {
		t.Fatal(err)
	}
	p, r := res.Program.WithoutRule(2), res.Program.Rules[2]
	div, d := res.TGDs, db.FromFacts(res.Facts)
	budget := Budget{MaxAtoms: 600, MaxRounds: 600}
	c, err := NewChecker(p)
	if err != nil {
		t.Fatal(err)
	}
	// The diverging chase runs until the budget: Unknown, not an error.
	polls := &tripCtx{Context: context.Background(), trip: math.MaxInt}
	want, err := c.Apply(polls, div, d, budget)
	if err != nil || want.Complete {
		t.Fatalf("budgeted diverging chase: complete=%v err=%v", want.Complete, err)
	}
	const trip = 12
	if polls.calls < 4*trip {
		t.Fatalf("workload too small to tell a cut from completion: %d polls", polls.calls)
	}
	before := c.Stats()
	ctx := &tripCtx{Context: context.Background(), trip: trip}
	_, err = c.Apply(ctx, div, d, budget)
	wantCanceled(t, err, ctx)
	if ran := c.Stats().Rounds - before.Rounds; ran > trip {
		t.Fatalf("canceled at poll %d but %d fixpoint rounds ran", trip, ran)
	}
	got, err := c.Apply(context.Background(), div, d, budget)
	if err != nil || got.DB.String() != want.DB.String() || got.Rounds != want.Rounds {
		t.Fatalf("after a canceled chase the session answers differently: err=%v rounds %d vs %d", err, got.Rounds, want.Rounds)
	}

	// A containment test that needs the chase (no rule of p subsumes r),
	// cut inside its evaluation: poll 1 is the test's entry, poll 2 the
	// evaluation's, poll 3 its first round.
	published := VerdictStoreStats().Verdicts
	ctx = &tripCtx{Context: context.Background(), trip: 3}
	_, err = c.ContainsRule(ctx, r)
	wantCanceled(t, err, ctx)
	if now := VerdictStoreStats().Verdicts; now != published {
		t.Fatalf("canceled containment test published %d verdicts", now-published)
	}
	before = c.Stats()
	ok, err := c.ContainsRule(context.Background(), r)
	if err != nil || !ok {
		t.Fatalf("after a canceled test: ContainsRule = %v, %v; want true", ok, err)
	}
	if st := c.Stats(); st.VerdictsRecomputed != before.VerdictsRecomputed+1 {
		t.Fatalf("the verdict was not decided afresh after the canceled test: %+v", st)
	}

	// Masked on the session that saw the cancellations: without the
	// recursive rule r is uncontained, exactly as a fresh session says.
	skip := []bool{false, true}
	ctx = &tripCtx{Context: context.Background(), trip: 3}
	_, err = c.ContainsRuleMasked(ctx, r, skip)
	wantCanceled(t, err, ctx)
	fresh, _, err := UniformlyContains(p.WithoutRule(1), ast.NewProgram(r))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.ContainsRuleMasked(context.Background(), r, skip); err != nil || ok != (fresh == Yes) || ok {
		t.Fatalf("masked test after a canceled one: %v, %v; fresh session says %v", ok, err, fresh)
	}
}
