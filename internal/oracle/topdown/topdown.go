// Package topdown implements a tabled top-down (query/subquery-style)
// evaluation engine: the goal-directed strategy of the literature the
// paper's introduction surveys (Henschen–Naqvi, Vieille's QSQ), and the
// operational mirror of the magic-sets rewriting in internal/magic. A
// query spawns subgoals — predicate + binding pattern + bound values —
// whose answer tables are filled to a simultaneous fixpoint; recursion
// through the same subgoal is handled by iterating passes until no table
// grows, which terminates because Datalog generates finitely many subgoals
// and answers over a finite constant domain.
//
// It is a test oracle, not a shipped engine (E11 recorded it as never the
// fastest arm): a second, independent way to answer a query that bottom-up
// evaluation + db.Select and the magic rewritings are checked against. Only
// _test.go files import it (TestStructure/one-join).
package topdown

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/db"
	"repro/internal/depgraph"
	"repro/internal/eval"
	"repro/internal/oracle"
)

// Stats reports the work a query performed.
type Stats struct {
	// Subgoals is the number of distinct (predicate, pattern, values)
	// tables created.
	Subgoals int
	// Answers is the total number of answers across all tables.
	Answers int
	// Passes is the number of global fixpoint passes.
	Passes int
}

// Engine evaluates queries top-down with tabling against a fixed program
// and EDB. With stratified negation, the strata below the query are
// materialized bottom-up once (negation needs complete relations), and
// only the remaining positive rules run goal-directed; negated literals
// check absence against the materialized base.
type Engine struct {
	program *ast.Program
	edb     *db.Database
	idb     map[string]bool
	tables  map[string]*table
	order   []string // table keys in creation order, for deterministic passes
	// materialized holds predicates whose full relation already lives in
	// edb (lower strata of a stratified program); they are answered like
	// extensional predicates.
	materialized map[string]bool
}

// table is the answer set of one subgoal.
type table struct {
	pred    string
	cols    []int
	vals    []ast.Const
	answers *db.Database // relation `pred` holding the ground answers
}

// New builds an engine. Pure Datalog runs fully goal-directed. With
// stratified negation, every stratum except the last is evaluated
// bottom-up into the engine's base (negated predicates must be complete),
// and the final stratum's rules run goal-directed on top.
func New(p *ast.Program, edb *db.Database) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.HasNegation() {
		return &Engine{
			program:      p,
			edb:          edb,
			idb:          p.IDBPredicates(),
			tables:       make(map[string]*table),
			materialized: map[string]bool{},
		}, nil
	}
	strata, err := depgraph.Strata(p)
	if err != nil {
		return nil, err
	}
	// Split rules: every stratum but the last is materialized bottom-up.
	lastStratum := map[string]bool{}
	for _, pred := range strata[len(strata)-1] {
		lastStratum[pred] = true
	}
	lower := ast.NewProgram()
	upper := ast.NewProgram()
	materialized := map[string]bool{}
	for _, r := range p.Rules {
		if lastStratum[r.Head.Pred] {
			// Negated predicates are strictly lower-stratum, hence
			// materialized; the solver checks absence directly.
			upper.Rules = append(upper.Rules, r.Clone())
			continue
		}
		lower.Rules = append(lower.Rules, r.Clone())
		materialized[r.Head.Pred] = true
	}
	base, _, err := eval.Eval(lower, edb)
	if err != nil {
		return nil, err
	}
	return &Engine{
		program:      upper,
		edb:          base,
		idb:          upper.IDBPredicates(),
		tables:       make(map[string]*table),
		materialized: materialized,
	}, nil
}

// subgoalFor derives the subgoal of an atom under a binding: the bound
// positions are those holding constants or bound variables.
func subgoalFor(a ast.Atom, b ast.Binding) (cols []int, vals []ast.Const) {
	for i, t := range a.Args {
		if !t.IsVar {
			cols = append(cols, i)
			vals = append(vals, t.Val)
			continue
		}
		if c, ok := b[t.Name]; ok {
			cols = append(cols, i)
			vals = append(vals, c)
		}
	}
	return cols, vals
}

func subgoalKey(pred string, cols []int, vals []ast.Const) string {
	var sb strings.Builder
	sb.WriteString(pred)
	for i, c := range cols {
		fmt.Fprintf(&sb, "|%d=%d", c, vals[i])
	}
	return sb.String()
}

// ensureTable registers a subgoal, returning its table and whether it was
// new.
func (e *Engine) ensureTable(pred string, cols []int, vals []ast.Const) (*table, bool) {
	key := subgoalKey(pred, cols, vals)
	if t, ok := e.tables[key]; ok {
		return t, false
	}
	t := &table{
		pred:    pred,
		cols:    append([]int(nil), cols...),
		vals:    append([]ast.Const(nil), vals...),
		answers: db.New(),
	}
	e.tables[key] = t
	e.order = append(e.order, key)
	return t, true
}

// Query answers q, returning its matching tuples. The engine's tables
// persist across queries, so repeated or overlapping queries reuse work.
func (e *Engine) Query(q ast.Atom) ([][]ast.Const, Stats, error) {
	if !e.idb[q.Pred] {
		// Extensional query: read the EDB directly.
		return matches(e.edb, q), e.stats(0), nil
	}

	cols, vals := subgoalFor(q, nil)
	root, _ := e.ensureTable(q.Pred, cols, vals)

	passes := 0
	for {
		passes++
		changed := false
		// Iterate over a snapshot of the table list; solving may register
		// new subgoals, which later passes will fill.
		keys := append([]string(nil), e.order...)
		for _, key := range keys {
			if e.fillTable(e.tables[key]) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	return matches(root.answers, q), e.stats(passes), nil
}

// matches returns the tuples of d matching q.
func matches(d *db.Database, q ast.Atom) [][]ast.Const {
	var out [][]ast.Const
	b := ast.Binding{}
	oracle.MatchAtom(d, q, db.AllRounds, b, func() bool {
		out = append(out, q.MustGround(b).Args)
		return true
	})
	return out
}

func (e *Engine) stats(passes int) Stats {
	s := Stats{Subgoals: len(e.tables), Passes: passes}
	for _, t := range e.tables {
		s.Answers += t.answers.Len()
	}
	return s
}

// fillTable runs every rule for the table's subgoal once against the
// current state of all tables, returning whether new answers appeared.
func (e *Engine) fillTable(t *table) bool {
	added := false
	for ri, r := range e.program.Rules {
		if r.Head.Pred != t.pred {
			continue
		}
		rule := r.RenameApart(ri)
		// Bind the head's bound positions to the subgoal's values.
		b := ast.Binding{}
		ok := true
		for i, col := range t.cols {
			arg := rule.Head.Args[col]
			if !arg.IsVar {
				if arg.Val != t.vals[i] {
					ok = false
					break
				}
				continue
			}
			if prev, bound := b[arg.Name]; bound {
				if prev != t.vals[i] {
					ok = false
					break
				}
				continue
			}
			b[arg.Name] = t.vals[i]
		}
		if !ok {
			continue
		}
		neg := rule.NegBody
		if e.solveBody(rule.Body, b, func(bb ast.Binding) {
			for _, n := range neg {
				if e.edb.Has(n.MustGround(bb)) {
					return
				}
			}
			if t.answers.Add(rule.Head.MustGround(bb)) {
				added = true
			}
		}) {
			// solveBody returns whether it registered new subgoals; new
			// tables count as progress so the global loop runs again.
			added = true
		}
	}
	return added
}

// solveBody enumerates bindings satisfying the positive body
// left-to-right, reading intentional atoms from their subgoal tables
// (registering missing tables) and extensional or materialized atoms from
// the base. It reports whether any new subgoal table was registered.
func (e *Engine) solveBody(body []ast.Atom, b ast.Binding, yield func(ast.Binding)) bool {
	if len(body) == 0 {
		yield(b)
		return false
	}
	atom, from, registered := body[0], e.edb, false
	if e.idb[atom.Pred] && !e.materialized[atom.Pred] {
		cols, vals := subgoalFor(atom, b)
		tbl, isNew := e.ensureTable(atom.Pred, cols, vals)
		from, registered = tbl.answers, isNew
	}
	oracle.MatchAtom(from, atom, db.AllRounds, b, func() bool {
		if e.solveBody(body[1:], b, yield) {
			registered = true
		}
		return true
	})
	return registered
}
