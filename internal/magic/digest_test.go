package magic

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/workload"
)

// pureRewriteDigest is the sha256 of FormatAdornment(Rewrite(p, q)) over the
// seeded programs and queries of TestPureRewriteDigest. It was recorded
// before Rewrite learned stratified negation: a negation-free program's
// rewriting must not move by a byte.
const pureRewriteDigest = "bd99e43a38d115355ed6604e38f3fb7318acadfa5abb4a6af19a547bd5ec48e4"

// TestPureRewriteDigest pins the rewriting of negation-free programs: 1,200
// random programs, each queried on an intentional predicate with a random
// bound/free pattern, hashed in order.
func TestPureRewriteDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := sha256.New()
	for i := 0; i < 1200; i++ {
		p := workload.RandomProgram(rng, 1+rng.Intn(5))
		pred := "P"
		if p.IDBPredicates()["Q"] && rng.Intn(2) == 0 {
			pred = "Q"
		}
		args := make([]ast.Term, 2)
		for k := range args {
			switch rng.Intn(3) {
			case 0:
				args[k] = ast.IntTerm(int64(rng.Intn(3)))
			case 1:
				args[k] = ast.Var("x")
			default:
				args[k] = ast.Var("y")
			}
		}
		rw, err := Rewrite(p, ast.NewAtom(pred, args...))
		if err != nil {
			t.Fatalf("program %d: %v\n%s", i, err, p)
		}
		h.Write([]byte(FormatAdornment(rw)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pureRewriteDigest {
		t.Fatalf("pure rewrite digest = %s, want %s", got, pureRewriteDigest)
	}
}
