package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
)

// Handler returns the server's HTTP mux (go 1.22 method+wildcard patterns):
//
//	POST /v1/programs/{name}            register a program version
//	POST /v1/programs/{name}/facts     apply a mutation batch (assert/retract)
//	POST /v1/programs/{name}/subscriptions  changefeed of maintained output diffs
//	POST /v1/programs/{name}/eval      evaluate / query under a budget
//	POST /v1/programs/{name}/minimize  Fig. 2 minimization
//	POST /v1/programs/{name}/compare   uniform equivalence of two versions
//	POST /v1/programs/{name}/vet       static analysis of a version's source
//	POST /v1/programs/{name}/explain   derivation tree of one fact
//	GET  /v1/statz                     cache/verdict/request counters
//	GET  /v1/healthz                   liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs/{name}", verb(s, s.knownOrFresh, s.verbRegister))
	mux.HandleFunc("POST /v1/programs/{name}/facts", verb(s, s.known, s.verbFacts))
	mux.HandleFunc("POST /v1/programs/{name}/subscriptions", verb(s, s.known, s.verbSubscribe))
	mux.HandleFunc("POST /v1/programs/{name}/eval", verb(s, s.known, s.verbEval))
	mux.HandleFunc("POST /v1/programs/{name}/minimize", verb(s, s.known, s.verbMinimize))
	mux.HandleFunc("POST /v1/programs/{name}/compare", verb(s, s.known, s.verbCompare))
	mux.HandleFunc("POST /v1/programs/{name}/vet", verb(s, s.known, s.verbVet))
	mux.HandleFunc("POST /v1/programs/{name}/explain", verb(s, s.known, s.verbExplain))
	mux.HandleFunc("GET /v1/statz", verb(s, nil, s.verbStatz))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, map[string]string{"status": "ok"})
	})
	return mux
}

// verb is the one request path: count the request, bound and decode its body
// into the verb's own request struct, resolve {name} (a nil resolve: the
// route has none), run the verb, and write the body it returns — stream it,
// for the verb that returns a changefeed — or the typed error. Verb functions
// see no http.ResponseWriter and take no lock.
func verb[Req any](s *Server, resolve func(name string) (*programEntry, error), run func(context.Context, *programEntry, *Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		// A verb that panics answers a typed 500, leaves its stack in the log
		// and the server keeps serving; it has published nothing — an output
		// is memoized only once its evaluation has returned without error.
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				log.Printf("service: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				s.writeError(w, fmt.Errorf("service: %s %s panicked: %v", r.Method, r.URL.Path, p))
			}
		}()
		var req Req
		var e *programEntry
		err := decodeBody(w, r, &req)
		if err == nil && resolve != nil {
			e, err = resolve(r.PathValue("name"))
		}
		var body any
		if err == nil {
			body, err = run(r.Context(), e, &req)
		}
		if err != nil {
			s.writeError(w, err)
		} else if feed, ok := body.(*changefeed); ok {
			feed.stream(s, w, r)
		} else {
			writeJSON(w, 200, body)
		}
	}
}

// maxBodyBytes bounds a request body; the largest any client in the tree
// sends is under 64 KiB.
const maxBodyBytes = 16 << 20

// decodeBody reads a POST's body, under maxBodyBytes, as exactly one JSON
// value with no unknown field.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) error {
	if r.Method != http.MethodPost {
		return nil
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &RequestError{Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
			Err: fmt.Errorf("service: request body exceeds %d bytes", tooLarge.Limit)}
	}
	return &RequestError{Status: 400, Code: "bad_request", Err: fmt.Errorf("service: decoding body: %w", err)}
}

// budgetJSON is the per-request resource envelope: a derived-fact cap and a
// context deadline.
type budgetJSON struct {
	MaxDerived int `json:"max_derived"`
	TimeoutMS  int `json:"timeout_ms"`
}

// ctx derives the request context bounded by the budget's deadline.
func (b budgetJSON) ctx(parent context.Context) (context.Context, context.CancelFunc) {
	if b.TimeoutMS > 0 {
		return context.WithTimeout(parent, time.Duration(b.TimeoutMS)*time.Millisecond)
	}
	return context.WithCancel(parent)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError maps typed errors onto HTTP statuses and stable codes:
// RequestError carries its own; a deadline maps to 504, cancellation to
// 499, an exhausted derived-fact budget to 422, an exact containment test
// over a program with negation to 422, a fact batch or tenant database
// contradicting a predicate's arity to 400. A 410 (a db_version pin
// below the tenant's retention window) is counted in requests.gone_versions.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	status, code := http.StatusInternalServerError, "internal"
	var re *RequestError
	switch {
	case errors.As(err, &re):
		status, code = re.Status, re.Code
		if status == http.StatusGone {
			s.goneVersions.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
		status, code = http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, eval.ErrCanceled):
		s.canceled.Add(1)
		status, code = 499, "canceled"
	case errors.Is(err, eval.ErrBudget):
		status, code = http.StatusUnprocessableEntity, "budget_exhausted"
	case errors.Is(err, chase.ErrNegation):
		status, code = http.StatusUnprocessableEntity, "negation_unsupported"
	case errors.Is(err, eval.ErrArity):
		status, code = http.StatusBadRequest, "arity_mismatch"
	}
	writeJSON(w, status, map[string]string{"error": code, "message": err.Error()})
}

func (s *Server) verbRegister(_ context.Context, e *programEntry, req *struct {
	Source string `json:"source"`
}) (any, error) {
	pv, err := s.register(e, req.Source)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"name": e.name, "version": pv.version, "rules": len(pv.prog.Rules), "tgds": len(pv.tgds),
	}, nil
}

// verbFacts applies one mutation envelope {"assert": ..., "retract": ...}
// to a tenant database.
func (s *Server) verbFacts(_ context.Context, e *programEntry, req *struct {
	Tenant  string `json:"tenant"`
	Assert  string `json:"assert"`
	Retract string `json:"retract"`
}) (any, error) {
	if req.Tenant == "" {
		return nil, &RequestError{Status: 400, Code: "missing_tenant", Err: fmt.Errorf("service: tenant required")}
	}
	version, size, err := e.mutate(req.Tenant, req.Assert, req.Retract)
	if err != nil {
		return nil, err
	}
	return map[string]any{"tenant": req.Tenant, "db_version": version, "size": size}, nil
}

func (s *Server) verbEval(ctx context.Context, e *programEntry, req *struct {
	Tenant         string     `json:"tenant"`
	Query          string     `json:"query"`
	ProgramVersion int        `json:"program_version"`
	DBVersion      int        `json:"db_version"`
	Budget         budgetJSON `json:"budget"`
}) (any, error) {
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		return nil, err
	}
	t, snap, dbv, err := e.snapshot(req.Tenant, req.DBVersion)
	if err != nil {
		return nil, err
	}
	ctx, cancel := req.Budget.ctx(ctx)
	defer cancel()
	s.evals.Add(1)
	var atom ast.Atom
	if req.Query != "" {
		if atom, err = e.parseAtom(req.Query); err != nil {
			return nil, err
		}
		if err = pv.session.Prepared().CheckAtom(snap.DB(), atom.Pred, len(atom.Args)); err != nil {
			return nil, err
		}
	}
	// A snapshot the tenant has already evaluated is answered from that
	// output, and st stays zero: stats are the work this request ran. Whatever
	// the memoized output cannot answer as a fresh evaluation would — another
	// database version, a budget it exceeds, a dead context — is evaluated.
	maxDerived := max(req.Budget.MaxDerived, 0)
	var out *db.Database
	var st core.EvalStats
	if m := t.memoized(pv.version, dbv); m != nil && (maxDerived == 0 || m.derived <= maxDerived) && ctx.Err() == nil {
		s.evalsMemoized.Add(1)
		out = m.out
	} else {
		if out, st, err = pv.session.EvalWith(ctx, snap.DB(), maxDerived); err != nil {
			return nil, err
		}
		e.memoize(t, pv.version, dbv, out)
	}
	resp := map[string]any{"program_version": pv.version, "db_version": dbv, "stats": st}
	if req.Query != "" {
		resp["rows"] = e.renderRows(db.Select(out, atom))
	} else {
		resp["facts"] = e.renderFacts(out.Facts(), true)
	}
	return resp, nil
}

func (s *Server) verbMinimize(ctx context.Context, e *programEntry, req *struct {
	ProgramVersion int        `json:"program_version"`
	Budget         budgetJSON `json:"budget"`
}) (any, error) {
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		return nil, err
	}
	ctx, cancel := req.Budget.ctx(ctx)
	defer cancel()
	q, trace, err := pv.session.Minimize(ctx, core.MinimizeOptions{})
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"program_version": pv.version,
		"program":         q.Format(e.syms),
		"atoms_removed":   trace.AtomsRemoved(),
		"rules_removed":   trace.RulesRemoved(),
		"stats":           trace.Stats,
	}, nil
}

func (s *Server) verbCompare(ctx context.Context, e *programEntry, req *struct {
	VersionA int        `json:"version_a"`
	VersionB int        `json:"version_b"`
	Budget   budgetJSON `json:"budget"`
}) (any, error) {
	pa, err := e.versionEntry(req.VersionA)
	if err != nil {
		return nil, err
	}
	pb, err := e.versionEntry(req.VersionB)
	if err != nil {
		return nil, err
	}
	ctx, cancel := req.Budget.ctx(ctx)
	defer cancel()
	equivalent, err := pa.session.Compare(ctx, pb.session)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"version_a": pa.version, "version_b": pb.version, "equivalent": equivalent,
	}, nil
}

func (s *Server) verbVet(_ context.Context, e *programEntry, req *struct {
	ProgramVersion int `json:"program_version"`
}) (any, error) {
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		return nil, err
	}
	// Vet re-parses the stored source loosely (its own symbol table) so
	// ill-formedness reaches the analyzer instead of a parse rejection.
	res, err := core.ParseLoose(pv.source)
	if err != nil {
		return nil, &RequestError{Status: 400, Code: "parse_error", Err: err}
	}
	diags := core.Analyze(res)
	type diagJSON struct {
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Pass     string `json:"pass"`
		Pos      string `json:"pos,omitempty"`
		Message  string `json:"message"`
	}
	out := make([]diagJSON, 0, len(diags))
	for _, d := range diags {
		dj := diagJSON{Code: d.Code, Severity: d.Severity.String(), Pass: d.Pass, Message: d.Message}
		if d.Pos.IsValid() {
			dj.Pos = d.Pos.String()
		}
		out = append(out, dj)
	}
	resp := map[string]any{
		"program_version": pv.version,
		"diagnostics":     out,
		"errors":          core.AnalysisHasErrors(diags),
	}
	if len(res.TGDs) > 0 {
		resp["termination_class"] = core.ClassifyTGDs(res.Program, res.TGDs).Class.String()
	}
	return resp, nil
}

func (s *Server) verbExplain(ctx context.Context, e *programEntry, req *struct {
	Tenant         string `json:"tenant"`
	Fact           string `json:"fact"`
	ProgramVersion int    `json:"program_version"`
	DBVersion      int    `json:"db_version"`
}) (any, error) {
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		return nil, err
	}
	_, snap, dbv, err := e.snapshot(req.Tenant, req.DBVersion)
	if err != nil {
		return nil, err
	}
	atom, err := e.parseAtom(req.Fact)
	if err != nil {
		return nil, err
	}
	goal, err := atom.Ground(ast.Binding{})
	if err != nil {
		return nil, &RequestError{Status: 400, Code: "fact_not_ground",
			Err: fmt.Errorf("service: explain needs a ground fact: %w", err)}
	}
	d, found, err := pv.session.Explain(ctx, snap.DB(), goal)
	if err != nil {
		return nil, err
	}
	resp := map[string]any{"program_version": pv.version, "db_version": dbv, "found": found}
	if found {
		resp["derivation"] = d.Format(pv.prog, e.syms)
	}
	return resp, nil
}

// verbStatz surfaces the process-wide plan cache and verdict store, the eval
// counters summed over every program version's session, and the server's
// request counters — all read race-free.
func (s *Server) verbStatz(context.Context, *programEntry, *struct{}) (any, error) {
	pc := core.PlanCacheStats()
	vs := core.VerdictStats()
	est, ereqs := s.evalTotals()
	return map[string]any{
		"programs": s.programCount(),
		"eval": map[string]any{
			"requests": ereqs,
			"totals":   est,
		},
		"plan_cache": map[string]any{
			"entries": pc.Entries, "hits": pc.Hits, "misses": pc.Misses,
			"evictions": pc.Evictions,
		},
		"verdict_store": map[string]any{
			"programs": vs.Programs, "verdicts": vs.Verdicts,
			"lookups": vs.Lookups, "hits": vs.Hits, "evictions": vs.Evictions,
		},
		"requests": map[string]any{
			"total": s.requests.Load(), "errors": s.errors.Load(),
			"evals": s.evals.Load(), "evals_memoized": s.evalsMemoized.Load(),
			"canceled": s.canceled.Load(), "panics": s.panics.Load(),
			"gone_versions": s.goneVersions.Load(),
		},
	}, nil
}
