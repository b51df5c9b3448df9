package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/ast"
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
	mux.HandleFunc("POST /v1/programs/{name}", s.handleRegister)
	mux.HandleFunc("POST /v1/programs/{name}/facts", s.handleFacts)
	mux.HandleFunc("POST /v1/programs/{name}/subscriptions", s.handleSubscribe)
	mux.HandleFunc("POST /v1/programs/{name}/eval", s.handleEval)
	mux.HandleFunc("POST /v1/programs/{name}/minimize", s.handleMinimize)
	mux.HandleFunc("POST /v1/programs/{name}/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/programs/{name}/vet", s.handleVet)
	mux.HandleFunc("POST /v1/programs/{name}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/statz", s.handleStatz)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, 200, map[string]string{"status": "ok"})
	})
	return mux
}

// budgetJSON is the per-request resource envelope: a derived-fact cap, a
// context deadline, and the shard count of the evaluation executor.
type budgetJSON struct {
	MaxDerived int `json:"max_derived"`
	TimeoutMS  int `json:"timeout_ms"`
	Shards     int `json:"shards"`
}

// maxRequestShards caps per-request sharding: a tenant may tune its own
// requests, but not demand unbounded fan-out from a shared process.
const maxRequestShards = 64

// tune maps the budget onto per-request eval options, clamping Shards to the
// service cap (zero and negative values inherit the session defaults).
func (b budgetJSON) tune() core.EvalRequestOptions {
	req := core.EvalRequestOptions{}
	if b.MaxDerived > 0 {
		req.MaxDerived = b.MaxDerived
	}
	if b.Shards > 0 {
		req.Shards = min(b.Shards, maxRequestShards)
	}
	return req
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
// 499, an exhausted derived-fact budget to 422, a fact batch or tenant
// database contradicting a predicate's arity to 400.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	var re *RequestError
	switch {
	case errors.As(err, &re):
		writeJSON(w, re.Status, map[string]string{"error": re.Code, "message": re.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "deadline_exceeded", "message": err.Error()})
	case errors.Is(err, eval.ErrCanceled):
		s.canceled.Add(1)
		writeJSON(w, 499, map[string]string{"error": "canceled", "message": err.Error()})
	case errors.Is(err, eval.ErrBudget):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]string{"error": "budget_exhausted", "message": err.Error()})
	case errors.Is(err, eval.ErrArity):
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "arity_mismatch", "message": err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal", "message": err.Error()})
	}
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &RequestError{Status: 400, Code: "bad_request", Err: fmt.Errorf("service: decoding body: %w", err)}
	}
	return nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		Source string `json:"source"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	version, rules, tgds, err := s.RegisterProgram(r.PathValue("name"), req.Source)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, 200, map[string]any{
		"name": r.PathValue("name"), "version": version, "rules": rules, "tgds": tgds,
	})
}

// handleFacts applies one mutation envelope {"assert": ..., "retract": ...}
// to a tenant database.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		Tenant  string `json:"tenant"`
		Assert  string `json:"assert"`
		Retract string `json:"retract"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Tenant == "" {
		s.writeError(w, &RequestError{Status: 400, Code: "missing_tenant", Err: fmt.Errorf("service: tenant required")})
		return
	}
	version, size, err := s.MutateFacts(r.PathValue("name"), req.Tenant, req.Assert, req.Retract)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, 200, map[string]any{"tenant": req.Tenant, "db_version": version, "size": size})
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		Tenant         string     `json:"tenant"`
		Query          string     `json:"query"`
		ProgramVersion int        `json:"program_version"`
		DBVersion      int        `json:"db_version"`
		Budget         budgetJSON `json:"budget"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	name := r.PathValue("name")
	e := s.entry(name)
	if e == nil {
		s.writeError(w, errUnknownProgram(name))
		return
	}
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	snap, dbv, err := s.snapshot(name, req.Tenant, req.DBVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := req.Budget.ctx(r.Context())
	defer cancel()
	s.evals.Add(1)

	resp := map[string]any{"program_version": pv.version, "db_version": dbv}
	if req.Query != "" {
		atom, err := e.parseQueryAtom(req.Query)
		if err != nil {
			s.writeError(w, err)
			return
		}
		out, st, err := pv.session.EvalWith(ctx, snap.DB(), req.Budget.tune())
		if err != nil {
			s.writeError(w, err)
			return
		}
		resp["rows"] = e.formatRows(db.Select(out, atom))
		resp["stats"] = st
		writeJSON(w, 200, resp)
		return
	}
	out, st, err := pv.session.EvalWith(ctx, snap.DB(), req.Budget.tune())
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp["facts"] = e.formatFacts(out)
	resp["stats"] = st
	writeJSON(w, 200, resp)
}

func (s *Server) handleMinimize(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		ProgramVersion int        `json:"program_version"`
		Budget         budgetJSON `json:"budget"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	e := s.entry(r.PathValue("name"))
	if e == nil {
		s.writeError(w, errUnknownProgram(r.PathValue("name")))
		return
	}
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := req.Budget.ctx(r.Context())
	defer cancel()
	q, trace, err := pv.session.Minimize(ctx, core.MinimizeOptions{})
	if err != nil {
		s.writeError(w, err)
		return
	}
	e.mu.RLock()
	rendered := q.Format(e.syms)
	e.mu.RUnlock()
	writeJSON(w, 200, map[string]any{
		"program_version": pv.version,
		"program":         rendered,
		"atoms_removed":   trace.AtomsRemoved(),
		"rules_removed":   trace.RulesRemoved(),
		"stats":           trace.Stats,
	})
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		VersionA int        `json:"version_a"`
		VersionB int        `json:"version_b"`
		Budget   budgetJSON `json:"budget"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	e := s.entry(r.PathValue("name"))
	if e == nil {
		s.writeError(w, errUnknownProgram(r.PathValue("name")))
		return
	}
	pa, err := e.versionEntry(req.VersionA)
	if err != nil {
		s.writeError(w, err)
		return
	}
	pb, err := e.versionEntry(req.VersionB)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := req.Budget.ctx(r.Context())
	defer cancel()
	equivalent, err := pa.session.Compare(ctx, pb.session)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, 200, map[string]any{
		"version_a": pa.version, "version_b": pb.version, "equivalent": equivalent,
	})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		ProgramVersion int `json:"program_version"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	e := s.entry(r.PathValue("name"))
	if e == nil {
		s.writeError(w, errUnknownProgram(r.PathValue("name")))
		return
	}
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Vet re-parses the stored source loosely (its own symbol table) so
	// ill-formedness reaches the analyzer instead of a parse rejection.
	res, err := core.ParseLoose(pv.source)
	if err != nil {
		s.writeError(w, &RequestError{Status: 400, Code: "parse_error", Err: err})
		return
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
	writeJSON(w, 200, resp)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req struct {
		Tenant         string `json:"tenant"`
		Fact           string `json:"fact"`
		ProgramVersion int    `json:"program_version"`
		DBVersion      int    `json:"db_version"`
	}
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	name := r.PathValue("name")
	e := s.entry(name)
	if e == nil {
		s.writeError(w, errUnknownProgram(name))
		return
	}
	pv, err := e.versionEntry(req.ProgramVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	snap, dbv, err := s.snapshot(name, req.Tenant, req.DBVersion)
	if err != nil {
		s.writeError(w, err)
		return
	}
	atom, err := e.parseQueryAtom(req.Fact)
	if err != nil {
		s.writeError(w, err)
		return
	}
	goal, err := atom.Ground(ast.Binding{})
	if err != nil {
		s.writeError(w, &RequestError{Status: 400, Code: "fact_not_ground",
			Err: fmt.Errorf("service: explain needs a ground fact: %w", err)})
		return
	}
	d, found, err := pv.session.Explain(r.Context(), snap.DB(), goal)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := map[string]any{"program_version": pv.version, "db_version": dbv, "found": found}
	if found {
		e.mu.RLock()
		resp["derivation"] = d.Format(pv.prog, e.syms)
		e.mu.RUnlock()
	}
	writeJSON(w, 200, resp)
}

// handleStatz surfaces the plan cache the server's sessions prepare through
// (injected or process-wide), the process-wide verdict store, and the
// server's request counters — all read race-free.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	pc := s.svc.PlanCacheStats()
	vs := core.VerdictStats()
	est, ereqs := s.svc.TotalStats()
	s.mu.RLock()
	nprogs := len(s.programs)
	s.mu.RUnlock()
	writeJSON(w, 200, map[string]any{
		"programs": nprogs,
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
			"lookups": vs.Lookups, "hits": vs.Hits, "rotations": vs.Rotations,
		},
		"requests": map[string]any{
			"total": s.requests.Load(), "errors": s.errors.Load(),
			"evals": s.evals.Load(), "canceled": s.canceled.Load(),
		},
	})
}
