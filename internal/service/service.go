// Package service turns the library into a long-running multi-tenant query
// server: named, versioned programs in an in-process registry, per-tenant
// fact databases read through frozen copy-on-write snapshots, and HTTP/JSON
// handlers for eval, minimize, compare, vet and explain. Each program version
// owns one core.Session, opened over the caller's program; the process-wide
// plan cache and verdict store are shared across all of them — sessions over
// canonically equal programs reuse one prepared plan and memoized
// containment verdicts — while per-request budgets (derived-fact caps and
// deadlines) keep any one tenant from monopolizing the process.
//
// Concurrency model. Each registered name owns one symbol table shared by
// every program version and every tenant fact set under that name, so the
// same symbol parses to the same constant everywhere — the invariant that
// makes tenant facts and query atoms mean the same thing the program text
// does. The table synchronises itself (ast.SymbolTable): parsing and
// rendering take no lock of this package. programEntry.mu guards the version
// and tenant maps and orders a mutation batch with its fan-out. It is
// write-locked only to append a program version, to stage a batch and
// maintain the tenant's live views over it, and to register or drop a
// subscriber; it is never held across a parse or a render, and across an
// evaluation only where frame order needs it (a view's first materialisation
// and its maintenance in a fan-out). Evaluation itself runs lock-free:
// inputs are frozen snapshots (immutable by construction), plans are
// immutable, and the session layer (core.Session) serializes only the
// single-threaded checker state. Every request enters through one wrapper
// (verb, handlers.go); the verb functions behind it take no lock and reach
// the maps only through the methods in this file.
//
// A fixpoint is a function of two immutable values, so a tenant keeps the
// one it last computed: per program version, the frozen output of its latest
// database version (evalMemo). The first /eval of a snapshot fills the slot,
// a live view refills it with what it maintained, and the next mutation batch
// drops it. The slots have their own mutex; reading or filling one never
// write-locks the entry.
//
// A tenant keeps its latest retainDBVersions database versions: mutate
// deletes the one that falls out of the window, and a db_version pin below it
// is a typed 410 gone_version. Nothing else needs an older one — a memo slot
// or a live view holds the latest only, and a request that resolved a
// snapshot holds it by pointer until it is done.
package service

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/parser"
)

// Server is the in-process service: a registry of named program entries.
type Server struct {
	mu       sync.RWMutex
	programs map[string]*programEntry

	// Race-clean request counters, surfaced by /statz.
	requests      atomic.Uint64
	errors        atomic.Uint64
	evals         atomic.Uint64
	evalsMemoized atomic.Uint64 // of evals, the ones answered from a memoized output
	canceled      atomic.Uint64
	panics        atomic.Uint64
	goneVersions  atomic.Uint64 // of errors, db_version pins below the retention window
}

// retainDBVersions is how many database versions a tenant keeps: its latest
// and the 15 before it.
const retainDBVersions = 16

// New returns an empty server.
func New() *Server { return &Server{programs: make(map[string]*programEntry)} }

// programEntry is one registered name: a shared symbol table, the version
// chain of programs, and the per-tenant snapshot chains. An entry is in
// Server.programs only once it holds an accepted version.
type programEntry struct {
	name string
	syms *ast.SymbolTable

	mu       sync.RWMutex // the maps below, and batch → fan-out order
	versions map[int]*programVersion
	latest   int
	tenants  map[string]*tenantState
}

// programVersion is one immutable registered program version with its
// long-lived session handle.
type programVersion struct {
	version int
	source  string
	prog    *ast.Program
	tgds    []ast.TGD
	session *core.Session
}

// tenantState is one tenant's fact-database version chain under a program
// entry. Snapshots are immutable; staging a new version thaws the latest,
// adds facts, and freezes the result.
type tenantState struct {
	versions map[int]*db.Snapshot
	latest   int

	// views are the tenant's maintained materializations, keyed by program
	// version — created by the first subscription against that version,
	// kept current by every later mutation batch and dropped with its last
	// subscriber (subscribe.go).
	views map[int]*liveView

	// memo holds, per program version, the fixpoint output of the tenant's
	// latest database version — at most one slot per program version, each
	// sharing its input relations with the snapshot by pointer. Guarded by
	// memoMu alone, so a reader holding the entry lock stalls no /eval.
	memoMu sync.Mutex
	memo   map[int]*evalMemo
}

// evalMemo is P(d) for one program version and one tenant database version:
// the frozen output, which concurrent requests select from and render (and
// whose lazily built column indexes they share), and how many facts it holds
// beyond its input — what a request's max_derived is held against.
type evalMemo struct {
	dbVersion int
	out       *db.Database
	derived   int
}

// known resolves a registered name, or answers the typed 404.
func (s *Server) known(name string) (*programEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e := s.programs[name]; e != nil {
		return e, nil
	}
	return nil, &RequestError{Status: 404, Code: "unknown_program",
		Err: fmt.Errorf("service: no program named %q", name)}
}

// knownOrFresh is known for registration, the one verb a new name is legal
// for: it resolves to a fresh entry nothing else can reach yet.
func (s *Server) knownOrFresh(name string) (*programEntry, error) {
	e, err := s.known(name)
	if err != nil {
		e = &programEntry{
			name:     name,
			syms:     ast.NewSymbolTable(),
			versions: make(map[int]*programVersion),
			tenants:  make(map[string]*tenantState),
		}
	}
	return e, nil
}

// programCount reports how many names are registered.
func (s *Server) programCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.programs)
}

// evalTotals sums the evaluation statistics and accounted requests of every
// program version's session: the eval counters /statz reports. Each session
// is read under its own stats lock, so the sum is race-free though not an
// atomic cross-session cut.
func (s *Server) evalTotals() (eval.Stats, uint64) {
	s.mu.RLock()
	entries := make([]*programEntry, 0, len(s.programs))
	for _, e := range s.programs {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	var tot eval.Stats
	var n uint64
	for _, e := range entries {
		e.mu.RLock()
		for _, pv := range e.versions {
			st, evals := pv.session.Stats()
			tot.Add(st)
			n += evals
		}
		e.mu.RUnlock()
	}
	return tot, n
}

// RegisterProgram parses src under name's symbol table and registers it as
// the next program version. The source must contain rules (and optionally
// tgds) only: facts belong to tenant databases.
func (s *Server) RegisterProgram(name, src string) (version, rules, tgds int, err error) {
	e, _ := s.knownOrFresh(name)
	pv, err := s.register(e, src)
	if err != nil {
		return 0, 0, 0, err
	}
	return pv.version, len(pv.prog.Rules), len(pv.tgds), nil
}

// register appends src to e as its next version and makes sure e is the
// entry its name resolves to. A rejected source inserts nothing: a fresh
// entry enters the registry only holding its first accepted version.
func (s *Server) register(e *programEntry, src string) (*programVersion, error) {
	pv, err := e.addVersion(src)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cur := s.programs[e.name]
	if cur == nil {
		s.programs[e.name] = e
	}
	s.mu.Unlock()
	if cur != nil && cur != e {
		// e was fresh and a concurrent first registration of its name won:
		// the constants of src must come from the winner's table.
		return cur.addVersion(src)
	}
	return pv, nil
}

// addVersion parses src under the entry's symbol table, opens its session and
// appends it as the entry's next version.
func (e *programEntry) addVersion(src string) (*programVersion, error) {
	res, err := parser.ParseWithSymbols(src, e.syms)
	if err != nil {
		return nil, &RequestError{Status: 400, Code: "parse_error", Err: err}
	}
	if len(res.Facts) > 0 {
		return nil, &RequestError{Status: 400, Code: "facts_in_program",
			Err: fmt.Errorf("service: program source carries %d facts; load them per tenant via /facts", len(res.Facts))}
	}
	if len(res.Program.Rules) == 0 {
		return nil, &RequestError{Status: 400, Code: "empty_program", Err: fmt.Errorf("service: no rules in source")}
	}
	sess, err := core.NewSession(res.Program)
	if err != nil {
		return nil, &RequestError{Status: 400, Code: "invalid_program", Err: err}
	}
	pv := &programVersion{source: src, prog: res.Program, tgds: res.TGDs, session: sess}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.latest++
	pv.version = e.latest
	e.versions[pv.version] = pv
	return pv, nil
}

// versionEntry resolves a program version under e (0 = latest).
func (e *programEntry) versionEntry(v int) (*programVersion, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if v == 0 {
		v = e.latest
	}
	pv := e.versions[v]
	if pv == nil {
		return nil, &RequestError{Status: 404, Code: "unknown_version",
			Err: fmt.Errorf("service: program %q has no version %d", e.name, v)}
	}
	return pv, nil
}

// LoadFacts stages src's facts as assertions against the tenant's next
// database version: the assert-only form of MutateFacts.
func (s *Server) LoadFacts(name, tenant, src string) (version, size int, err error) {
	return s.MutateFacts(name, tenant, src, "")
}

// MutateFacts applies one mutation batch — assertSrc's facts added,
// retractSrc's facts removed — staging the result as the tenant's next
// database version (copy-on-write over the frozen predecessor). Batch
// semantics match eval.Delta: retracting an absent fact or
// asserting a present one is a no-op, and a fact in both halves nets to
// "present". Every live view of the tenant is maintained under the same
// lock and its diff fanned out to subscribers, so changefeed frame order is
// mutation order. A batch holding a fact whose arity contradicts the
// tenant's relation (or an earlier fact of the batch) is rejected with an
// error wrapping eval.ErrArity and stages nothing. Returns the new database
// version and its total size.
func (s *Server) MutateFacts(name, tenant, assertSrc, retractSrc string) (version, size int, err error) {
	e, err := s.known(name)
	if err != nil {
		return 0, 0, err
	}
	return e.mutate(tenant, assertSrc, retractSrc)
}

// mutate is MutateFacts on a resolved entry: both halves are parsed before
// the entry lock is taken, the batch is staged and fanned out under it.
func (e *programEntry) mutate(tenant, assertSrc, retractSrc string) (version, size int, err error) {
	asserts, err := e.parseFacts(assertSrc)
	if err != nil {
		return 0, 0, err
	}
	retracts, err := e.parseFacts(retractSrc)
	if err != nil {
		return 0, 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tenants[tenant]
	w := db.New()
	if t != nil {
		w = t.versions[t.latest].Thaw()
	}
	// The store panics on a tuple whose arity contradicts its relation, so a
	// contradicting batch is refused whole, before the version chain moves.
	delta := eval.Delta{Assert: asserts, Retract: retracts}
	if err := delta.CheckArities(w); err != nil {
		return 0, 0, err
	}
	if t == nil {
		t = &tenantState{versions: make(map[int]*db.Snapshot), views: make(map[int]*liveView), memo: make(map[int]*evalMemo)}
		e.tenants[tenant] = t
	}
	net := delta.Net(w)
	for _, g := range net.Retract {
		w.Remove(g)
	}
	for _, g := range net.Assert {
		w.Add(g)
	}
	t.latest++
	t.versions[t.latest] = w.Freeze()
	delete(t.versions, t.latest-retainDBVersions)
	t.dropMemo()
	t.broadcastLocked(t.latest, delta)
	return t.latest, w.Len(), nil
}

// parseFacts parses a fact source under the entry's symbol table. An empty
// source parses to no facts.
func (e *programEntry) parseFacts(src string) ([]ast.GroundAtom, error) {
	if src == "" {
		return nil, nil
	}
	res, err := parser.ParseWithSymbols(src, e.syms)
	if err != nil {
		return nil, &RequestError{Status: 400, Code: "parse_error", Err: err}
	}
	if len(res.Program.Rules) > 0 || len(res.TGDs) > 0 {
		return nil, &RequestError{Status: 400, Code: "rules_in_facts",
			Err: fmt.Errorf("service: fact source carries rules or tgds; register them as a program version")}
	}
	return res.Facts, nil
}

// snapshot resolves a tenant and one of its database versions (0 = latest):
// one it never had is a 404, one that fell out of its retention window a 410.
func (e *programEntry) snapshot(tenant string, v int) (*tenantState, *db.Snapshot, int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.tenants[tenant]
	if t == nil {
		return nil, nil, 0, &RequestError{Status: 404, Code: "unknown_tenant",
			Err: fmt.Errorf("service: program %q has no tenant %q", e.name, tenant)}
	}
	if v == 0 {
		v = t.latest
	}
	snap := t.versions[v]
	if snap == nil && v >= 1 && v <= t.latest {
		return nil, nil, 0, &RequestError{Status: 410, Code: "gone_version",
			Err: fmt.Errorf("service: tenant %q keeps database versions %d–%d, not %d", tenant, t.latest-retainDBVersions+1, t.latest, v)}
	}
	if snap == nil {
		return nil, nil, 0, &RequestError{Status: 404, Code: "unknown_db_version",
			Err: fmt.Errorf("service: tenant %q has no database version %d", tenant, v)}
	}
	return t, snap, v, nil
}

// memoized returns the tenant's memoized output of program version pv over
// database version dbv, or nil: a pinned older version never matches, the
// slots hold the latest only.
func (t *tenantState) memoized(pv, dbv int) *evalMemo {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if m := t.memo[pv]; m != nil && m.dbVersion == dbv {
		return m
	}
	return nil
}

// setMemoLocked makes out — frozen, and P(d) for program version pv and the
// tenant's latest database version d — the tenant's slot for pv. Callers hold
// the entry mutex, read or write: latest does not move under them.
func (t *tenantState) setMemoLocked(pv int, out *db.Database) {
	m := &evalMemo{dbVersion: t.latest, out: out, derived: out.Len() - t.versions[t.latest].Len()}
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	t.memo[pv] = m
}

// dropMemo empties the tenant's slots: its latest database version moved.
func (t *tenantState) dropMemo() {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	clear(t.memo)
}

// memoize freezes out, the output a request just computed for program version
// pv over the tenant's database version dbv, and keeps it as the tenant's
// slot unless the tenant has moved on: a pinned older version, or a batch
// that landed meanwhile, is answered and not stored. The read lock orders the
// check with mutate, which moves latest and drops the slots under the write
// lock.
func (e *programEntry) memoize(t *tenantState, pv, dbv int, out *db.Database) {
	out.Freeze()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if t.latest == dbv {
		t.setMemoLocked(pv, out)
	}
}

// parseAtom interns a query atom under the entry's symbol table.
func (e *programEntry) parseAtom(src string) (ast.Atom, error) {
	a, err := parser.ParseAtomWithSymbols(src, e.syms)
	if err != nil {
		return ast.Atom{}, &RequestError{Status: 400, Code: "parse_error", Err: err}
	}
	return a, nil
}

// renderRows renders result tuples under the entry's symbol table, sorted
// lexicographically for a deterministic wire format.
func (e *programEntry) renderRows(rows [][]ast.Const) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		r := make([]string, len(row))
		for j, c := range row {
			r[j] = ast.FormatConst(c, e.syms)
		}
		out[i] = r
	}
	slices.SortFunc(out, slices.Compare[[]string])
	return out
}

// renderFacts renders facts under the entry's symbol table: a whole database
// sorted for a deterministic wire format, a diff in the canonical order it
// came in.
func (e *programEntry) renderFacts(facts []ast.GroundAtom, sorted bool) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.Format(e.syms)
	}
	if sorted {
		slices.Sort(out)
	}
	return out
}

// RequestError is a typed service error carrying the HTTP status and a
// stable machine-readable code.
type RequestError struct {
	Status int
	Code   string
	Err    error
}

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }
