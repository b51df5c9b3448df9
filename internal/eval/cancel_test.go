package eval

import (
	"context"
	"errors"
	"testing"

	"repro/internal/db"
	"repro/internal/parser"
)

// tripCtx is a context whose Err turns non-nil on its trip-th call and
// stays so: a cancellation that lands at a known point of the evaluation's
// poll sequence, with no timing involved.
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

// TestCancelCutsDuplicateHeavyPass is the regression test for the
// cancellation cadence: the emit path must poll the context on every
// emission, not only after a successful insert, so a pass that re-derives
// nothing but known facts — here an input that already contains its own
// output — is still cut mid-stream, within CtxCheckEvery firings of the
// poll that sees the cancellation. Both fixpoint shapes are covered: a
// one-pass stratum and a recursive unit.
func TestCancelCutsDuplicateHeavyPass(t *testing.T) {
	edb := db.New()
	for i := int64(0); i < 60; i++ {
		for _, step := range []int64{1, 7, 11, 13, 17, 19, 23, 29} {
			edb.Add(ga("A", i, (i+step)%60))
		}
	}
	for name, src := range map[string]string{
		"one-pass":  `P(x, z) :- A(x, y), A(y, z).`,
		"recursive": `G(x, z) :- A(x, z). G(x, z) :- A(x, y), G(y, z).`,
	} {
		t.Run(name, func(t *testing.T) {
			pr, err := Prepare(parser.MustParseProgram(src))
			if err != nil {
				t.Fatal(err)
			}
			closed, full, err := pr.Eval(edb)
			if err != nil {
				t.Fatal(err)
			}
			const trip = 5
			if full.Firings < 4*trip*CtxCheckEvery {
				t.Fatalf("workload too small to tell a cut from completion: %d firings", full.Firings)
			}
			ctx := &tripCtx{Context: context.Background(), trip: trip}
			_, _, st, err := pr.Run(ctx, closed, nil, 0)
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			if st.Added != 0 {
				t.Fatalf("closed input derived %d new facts", st.Added)
			}
			// Every poll is either a boundary check or CtxCheckEvery firings
			// after the previous one, so trip polls bound the work done.
			if st.Firings > trip*CtxCheckEvery {
				t.Fatalf("canceled at poll %d but %d firings ran (cadence %d)", trip, st.Firings, CtxCheckEvery)
			}
		})
	}
}
