package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/db"
)

// Incremental maintains a previously computed output under fact insertion:
// given out = P(d) (as returned by Eval, with its round stamps intact) and
// a batch of new facts, it computes P(d ∪ newFacts) by running the
// semi-naive delta propagation from the inserted facts only, instead of
// re-evaluating from scratch. Datalog is monotonic, so insertion-only
// maintenance is exact.
//
// The input database is not modified; the updated output is returned.
// Programs with negation are rejected: an insertion into a lower stratum
// can retract facts of a higher one, and the previous output does not
// remember which of its facts were inputs — callers must re-evaluate from
// their original input instead.
func Incremental(p *ast.Program, out *db.Database, newFacts []ast.GroundAtom, opts Options) (*db.Database, Stats, error) {
	var stats Stats
	if err := p.Validate(); err != nil {
		return nil, stats, err
	}
	if p.HasNegation() {
		return nil, stats, fmt.Errorf("eval: incremental maintenance requires a pure Datalog program; negation can retract derived facts, so re-evaluate from the original input")
	}

	cur := out.Clone()
	// Stamp the inserted facts as a fresh delta round.
	cur.BeginRound()
	added := 0
	for _, f := range newFacts {
		if cur.Add(f) {
			added++
		}
	}
	if added == 0 {
		return cur, stats, nil
	}
	opts.Shards = normalizeShards(opts)
	if err := insertLoop(opts.Context, cur, insertSetup(p.Rules, opts), partitionCols(p.Rules), cur.Round(), opts, &stats); err != nil {
		return nil, stats, err
	}
	return cur, stats, nil
}

// insertSetup lowers rules for insertLoop: the static join order, every
// predicate able to hold a round's delta.
func insertSetup(rules []ast.Rule, opts Options) *roundSetup {
	var perms [][]int
	if !opts.NoReorder {
		perms = staticPerms(rules)
	}
	return buildSetup(rules, perms, opts.Shards > 1, func(string) bool { return true })
}
