package workload

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
)

// smallTenant is the serve-mixed-sized tenant BenchmarkSmallTenantEvalVsApply
// prices.
var smallTenant = AuthzSizes{Users: 20, Groups: 5, Roles: 4, Docs: 16, DocsPerRole: 4}

// TestAuthzTenantDigest pins the facts AuthzTenant draws, in insertion order:
// seed 5 at the small-tenant sizes is the tenant the benchmark built inline
// before the generator moved here, fact for fact.
func TestAuthzTenantDigest(t *testing.T) {
	d := AuthzTenant(rand.New(rand.NewSource(5)), smallTenant)
	const want = "53 facts e5081b721ed86632912bae286d972f98f8aa9952954191a625b13a398a69a826"
	if got := fmt.Sprintf("%d facts %x", d.Len(), sha256.Sum256([]byte(d.String()))); got != want {
		t.Fatalf("AuthzTenant(seed 5) = %s, want %s", got, want)
	}
}

// TestAuthzChurn checks the stream's contract on a maintained view: every
// retract is present and every assert absent when its batch applies, no
// batch touches a fact twice, the mix is membership-heavy, and applying
// each batch's Inverse in reverse order restores the tenant and its output.
func TestAuthzChurn(t *testing.T) {
	ctx := context.Background()
	sz := AuthzSizes{Users: 200, Groups: 12, Roles: 6, Docs: 40, DocsPerRole: 5}
	tenant := AuthzTenant(rand.New(rand.NewSource(1)), sz)
	pr, err := eval.Prepare(Authz())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := pr.Materialize(ctx, tenant)
	if err != nil {
		t.Fatal(err)
	}
	start := m.Output()
	batches := AuthzChurn(rand.New(rand.NewSource(2)), tenant, sz, 200)
	count := map[string]int{}
	apply := func(b Batch, tally bool) {
		t.Helper()
		seen := map[string]bool{}
		for half, gs := range [2][]ast.GroundAtom{b.Retract, b.Assert} {
			for _, g := range gs {
				if m.Input().Has(g) != (half == 0) {
					t.Fatalf("retract of an absent or assert of a present %v", g)
				}
				if seen[g.String()] {
					t.Fatalf("batch touches %v twice", g)
				}
				seen[g.String()] = true
				if tally {
					count[g.Pred]++
				}
			}
		}
		if _, _, err := m.Apply(ctx, eval.Delta{Assert: b.Assert, Retract: b.Retract}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		apply(b, true)
	}
	if want, _, _ := pr.Eval(m.Input()); !want.Equal(m.Output()) {
		t.Fatal("maintained output differs from a from-scratch evaluation")
	}
	if count["Direct"] < 4*count["Grant"] || count["Grant"] == 0 || count["Allows"] == 0 {
		t.Fatalf("toggle mix %v, want Direct 6 in 8, Grant and Allows 1 in 8 each", count)
	}
	for i := len(batches) - 1; i >= 0; i-- {
		apply(batches[i].Inverse(), false)
	}
	if !m.Input().Equal(tenant) || !m.Output().Equal(start) {
		t.Fatal("the inverse stream did not restore the tenant")
	}
}
