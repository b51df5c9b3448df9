package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// Workload `serve-mixed`: a request through `datalog serve`. Closed-loop
// client goroutines (min(nproc, 4) — the callers of this system wait for
// each reply) send a seeded mix over loopback to an in-process server: 70 %
// /eval with a bound-argument query, 5 % /eval returning every fact, 20 %
// /facts with one assert and one retract, 5 % /minimize, /compare and /vet
// on registered versions. Two programs (authz: recursive group membership →
// roles → ACLs; reach: transitive closure plus a non-recursive view) serve
// 32 tenants each; tenant databases are deliberately small (≈ 100 facts),
// so decode, parse-under-lock, snapshot lookup, row rendering and JSON
// encoding outweigh the kernel — the mirror image of `eval-bulk`. Two
// passive NDJSON changefeed readers make mutations of the hottest tenants
// pay view maintenance and fan-out. It is the only workload with
// concurrency, lock contention and snapshot-chain growth.

// Frozen request count per client per second of --seconds, and sizes.
const (
	serveRequestsPerClientSecond = 5500
	serveTenants                 = 32
	serveReachNodes              = 20
	serveReachEdges              = 28
	serveReachSinks              = 4
	serveCheckEvery              = 50 // 1 in this many query responses is compared with the model
)

var serveAuthzSizes = authzSizes{users: 20, groups: 5, roles: 4, docs: 16, docsPerRole: 4}

// Each program is registered twice: version 1 carries one redundant atom,
// version 2 (the latest, the one evaluated) is clean. /compare(1, 2) must
// say equivalent, /minimize of version 1 must remove the atom.
const (
	authzBloated = `
Member(u, g) :- Direct(u, g).
Member(u, g) :- Member(u, h), Subgroup(h, g).
HasRole(u, r) :- Member(u, g), Grant(g, r), Grant(g, q).
CanRead(u, d) :- HasRole(u, r), Allows(r, d).
`
	reachSource = `
Reach(x, y) :- Edge(x, y).
Reach(x, y) :- Edge(x, z), Reach(z, y).
Hot(x) :- Reach(x, y), Sink(y).
`
	reachBloated = `
Reach(x, y) :- Edge(x, y).
Reach(x, y) :- Edge(x, z), Reach(z, y), Edge(x, w).
Hot(x) :- Reach(x, y), Sink(y).
`
)

// reachModel is the direct Go model of the reach program.
type reachModel struct {
	nodes int
	node  []int     // structural index → seeded label, a permutation of [0, nodes)
	edges factTable // Edge(x, y)
	sinks map[int64]bool
}

func newReachModel(sg, rg *rng) *reachModel {
	m := &reachModel{nodes: serveReachNodes, node: rg.perm(serveReachNodes),
		edges: newFactTable("Edge"), sinks: make(map[int64]bool)}
	for _, e := range randomDigraph(sg, m.nodes, serveReachEdges) {
		m.edges.add([2]int64{int64(m.node[e.from]), int64(m.node[e.to])})
	}
	for len(m.sinks) < serveReachSinks {
		m.sinks[int64(m.node[sg.intn(m.nodes)])] = true
	}
	return m
}

func (m *reachModel) facts() []fact {
	fs := m.edges.facts()
	sinks := make([]int64, 0, len(m.sinks))
	for s := range m.sinks {
		sinks = append(sinks, s)
	}
	sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })
	for _, s := range sinks {
		fs = append(fs, fact{"Sink", []int64{s}})
	}
	return fs
}

// reach returns, per node, the nodes reachable by one or more edges (BFS).
func (m *reachModel) reach() [][]int {
	es := make([]edge, len(m.edges.rows))
	for i, r := range m.edges.rows {
		es[i] = edge{int(r[0]), int(r[1])}
	}
	adj := adjacency(m.nodes, es)
	mark := make([]bool, m.nodes)
	out := make([][]int, m.nodes)
	for x := range out {
		out[x] = append([]int(nil), reachFrom(adj, x, mark, nil)...)
	}
	return out
}

// allFacts is everything an /eval without a query returns: base facts plus
// every derived one, rendered as the server renders them.
func (m *reachModel) allFacts() []string {
	var out []string
	for _, f := range m.facts() {
		out = append(out, strings.TrimSuffix(f.String(), "."))
	}
	for x, ys := range m.reach() {
		hot := false
		for _, y := range ys {
			out = append(out, fmt.Sprintf("Reach(%d, %d)", x, y))
			hot = hot || m.sinks[int64(y)]
		}
		if hot {
			out = append(out, fmt.Sprintf("Hot(%d)", x))
		}
	}
	sort.Strings(out)
	return out
}

func (m *authzModel) allFacts() []string {
	var out []string
	for _, f := range m.facts() {
		out = append(out, strings.TrimSuffix(f.String(), "."))
	}
	member, hasRole, canRead := m.derive()
	for pred, rel := range map[string]map[int64]map[int64]bool{"Member": member, "HasRole": hasRole, "CanRead": canRead} {
		for u, set := range rel {
			for x := range set {
				out = append(out, fmt.Sprintf("%s(%d, %d)", pred, u, x))
			}
		}
	}
	sort.Strings(out)
	return out
}

// serveTenant is one tenant of one program with its model.
type serveTenant struct {
	prog   string // "authz" or "reach"
	name   string
	authz  *authzModel
	reach  *reachModel
	mirror *core.Database // traced run: the library-side copy of the tenant database
}

func (t *serveTenant) facts() []fact {
	if t.authz != nil {
		return t.authz.facts()
	}
	return t.reach.facts()
}

func (t *serveTenant) size() int {
	if t.authz != nil {
		return len(t.authz.direct.rows) + len(t.authz.subgroup.rows) + len(t.authz.grant.rows) + len(t.authz.allows.rows)
	}
	return len(t.reach.edges.rows) + len(t.reach.sinks)
}

// query draws a bound-argument query and the rows the model expects, as
// the server renders them (full tuples, sorted as strings). rg here and in
// mutate is a structural stream: the seed decides labels, not choices.
func (t *serveTenant) query(rg *rng, withWant bool) (q string, want [][]string) {
	if t.authz != nil {
		u := t.authz.user[rg.intn(len(t.authz.user))]
		q = fmt.Sprintf("CanRead(%d, d)", u)
		if withWant {
			_, _, canRead := t.authz.derive()
			for d := range canRead[u] {
				want = append(want, []string{strconv.FormatInt(u, 10), strconv.FormatInt(d, 10)})
			}
		}
	} else {
		x := t.reach.node[rg.intn(t.reach.nodes)]
		q = fmt.Sprintf("Reach(%d, y)", x)
		if withWant {
			for _, y := range t.reach.reach()[x] {
				want = append(want, []string{strconv.Itoa(x), strconv.Itoa(y)})
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return want[i][0] < want[j][0]
		}
		return want[i][1] < want[j][1]
	})
	return q, want
}

// mutate draws one assert and one retract and applies them to the model.
func (t *serveTenant) mutate(rg *rng) (assert, retract fact) {
	if t.authz != nil {
		for {
			if f, ok := t.authz.mutation(rg, true); ok {
				retract = f
				break
			}
		}
		for {
			if f, ok := t.authz.mutation(rg, false); ok {
				assert = f
				break
			}
		}
		return assert, retract
	}
	m := t.reach
	r := m.edges.rows[rg.intn(len(m.edges.rows))]
	m.edges.remove(r)
	retract = fact{"Edge", []int64{r[0], r[1]}}
	for {
		e := [2]int64{int64(m.node[rg.intn(m.nodes)]), int64(m.node[rg.intn(m.nodes)])}
		if e[0] != e[1] && e != r && m.edges.add(e) {
			assert = fact{"Edge", []int64{e[0], e[1]}}
			return assert, retract
		}
	}
}

// serveState is one server with its tenants, readers and (traced run) the
// library-side mirror.
type serveState struct {
	srv     *httptest.Server
	client  *http.Client
	tenants map[string][]*serveTenant // program → tenants
	clients int
	lanes   []*speedLane // one per client

	evalsSent int64 // every /eval sent, warm-up included (compared with /v1/statz)

	readers    sync.WaitGroup
	stopFeeds  context.CancelFunc
	feedMu     sync.Mutex
	frameAt    map[string]time.Time // "prog/db_version" → frame read time
	sentAt     map[string]time.Time // "prog/db_version" → mutation send time
	frames     int
	seqGaps    int
	dropped    int
	feedErrors []string

	// traced run only
	mirrorSrv  *service.Server
	mirrorSess map[string]*core.Session
}

func (st *serveState) post(path string, body []byte) (int, []byte, error) {
	resp, err := st.client.Post(st.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// jsonBody renders a flat JSON object from alternating keys and values.
func jsonBody(kv ...any) []byte {
	m := make(map[string]any, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1]
	}
	b, _ := json.Marshal(m)
	return b
}

// serveSetup starts a server, registers both programs twice, loads every
// tenant, subscribes the two readers and sends a warm-up pass of `warm`
// requests per client.
func serveSetup(seed uint64, warm int, traced bool, lanes []*speedLane) (*serveState, error) {
	st := &serveState{
		lanes:   lanes,
		clients: serveClients(), tenants: make(map[string][]*serveTenant),
		frameAt: make(map[string]time.Time), sentAt: make(map[string]time.Time),
	}
	st.srv = httptest.NewServer(service.New().Handler())
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: st.clients + 4}}
	if traced {
		st.mirrorSrv = service.New()
		st.mirrorSess = make(map[string]*core.Session)
	}
	register := func(prog, src string) error {
		code, body, err := st.post("/v1/programs/"+prog, jsonBody("source", src))
		if err != nil || code != 200 {
			return fmt.Errorf("register %s: status %d err %v: %s", prog, code, err, body)
		}
		if traced {
			if _, _, _, err := st.mirrorSrv.RegisterProgram(prog, src); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range []struct{ name, v1, v2 string }{{"authz", authzBloated, authzSource}, {"reach", reachBloated, reachSource}} {
		if err := register(p.name, p.v1); err != nil {
			return nil, err
		}
		if err := register(p.name, p.v2); err != nil {
			return nil, err
		}
		if traced {
			prog, err := core.ParseProgram(p.v2)
			if err != nil {
				return nil, err
			}
			if st.mirrorSess[p.name], err = core.NewSession(prog); err != nil {
				return nil, err
			}
		}
	}
	rg := newRNG(seed, "serve-tenants")
	for i := 0; i < serveTenants; i++ {
		sg := newRNG(structSeed, "serve-tenant-"+strconv.Itoa(i))
		name := fmt.Sprintf("t%02d", i)
		ts := []*serveTenant{
			{prog: "authz", name: name, authz: newAuthzModel(sg, rg, serveAuthzSizes)},
			{prog: "reach", name: name, reach: newReachModel(sg, rg)},
		}
		for _, t := range ts {
			st.tenants[t.prog] = append(st.tenants[t.prog], t)
			src := factsSource(t.facts())
			code, body, err := st.post("/v1/programs/"+t.prog+"/facts", jsonBody("tenant", t.name, "assert", src))
			if err != nil || code != 200 {
				return nil, fmt.Errorf("load %s/%s: status %d err %v: %s", t.prog, t.name, code, err, body)
			}
			if traced {
				if _, _, err := st.mirrorSrv.LoadFacts(t.prog, t.name, src); err != nil {
					return nil, err
				}
				t.mirror = core.FromFacts(toCoreFacts(t.facts())).Freeze().DB()
			}
			// Warm-up: one query per tenant.
			q, _ := t.query(sg, false)
			code, body, err = st.post("/v1/programs/"+t.prog+"/eval", jsonBody("tenant", t.name, "query", q))
			st.evalsSent++
			if err != nil || code != 200 {
				return nil, fmt.Errorf("warm-up eval %s/%s: status %d err %v: %s", t.prog, t.name, code, err, body)
			}
		}
	}
	// Two passive changefeed readers on the hottest tenants.
	ctx, cancel := context.WithCancel(context.Background())
	st.stopFeeds = cancel
	for _, prog := range []string{"authz", "reach"} {
		ready := make(chan error, 1)
		st.readers.Add(1)
		go st.readFeed(ctx, prog, "t00", ready)
		if err := <-ready; err != nil {
			st.close()
			return nil, err
		}
	}
	p := st.runPass(warm, "serve-warm-", nil)
	st.evalsSent += p.evals
	if len(p.failures) > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up: %s", p.failures[0])
	}
	return st, nil
}

// readFeed subscribes and then blocks in Read except when a frame arrives.
// It checks frame sequence numbers are consecutive and notes when each
// database version's frame was read.
func (st *serveState) readFeed(ctx context.Context, prog, tenant string, ready chan<- error) {
	defer st.readers.Done()
	req, err := http.NewRequestWithContext(ctx, "POST", st.srv.URL+"/v1/programs/"+prog+"/subscriptions",
		bytes.NewReader(jsonBody("tenant", tenant)))
	if err != nil {
		ready <- err
		return
	}
	// The feed has its own connection: it is the one exception to the
	// closed-loop connection cap.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		ready <- fmt.Errorf("subscribe %s/%s: status %d", prog, tenant, resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var last uint64
	first := true
	for sc.Scan() {
		now := time.Now()
		var f struct {
			Seq       uint64 `json:"seq"`
			DBVersion int    `json:"db_version"`
			Snapshot  bool   `json:"snapshot"`
			Error     string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			st.feedMu.Lock()
			st.feedErrors = append(st.feedErrors, err.Error())
			st.feedMu.Unlock()
			continue
		}
		if first {
			first = false
			last = f.Seq
			ready <- nil
			continue
		}
		st.feedMu.Lock()
		switch {
		case f.Error != "":
			st.dropped++
			st.feedErrors = append(st.feedErrors, prog+": "+f.Error)
		default:
			st.frames++
			if f.Seq != last+1 {
				st.seqGaps++
			}
			last = f.Seq
			st.frameAt[prog+"/"+strconv.Itoa(f.DBVersion)] = now
		}
		st.feedMu.Unlock()
	}
	if first {
		ready <- fmt.Errorf("subscribe %s/%s: stream ended before the snapshot frame", prog, tenant)
	}
}

func (st *serveState) close() {
	st.stopFeeds()
	st.readers.Wait()
	st.client.CloseIdleConnections()
	st.srv.Close()
}

// serveSample is one completed request.
type serveSample struct {
	kind  string // "eval", "facts", "admin"
	start time.Time
	dur   time.Duration
	in    int // request body bytes
	out   int // response body bytes
}

// clientResult is what one client goroutine brings back.
type clientResult struct {
	requests string // SHA-256 over the request paths and bodies, in order
	samples  []serveSample
	mirror   []float64 // traced: library-side time of each mirrored eval
	own      []float64 // traced: HTTP round trip of the same evals
	failures []string
	evals    int64
	checked  int
}

// serveSlots is the request mix over twenty slots.
var serveSlots = [20]string{
	"query", "query", "query", "facts", "query", "query", "query", "all", "query", "facts",
	"query", "query", "query", "facts", "query", "query", "query", "admin", "query", "facts",
}

// runClient sends n requests, closed loop, to the client's own tenants
// (index ≡ client mod clients). It is their only writer, so it knows their
// exact state and every response is reproducible; the clients still meet on
// each program's entry lock, symbol table and session. Tenant choice is
// skewed towards low indexes (≈ 18 % to the first).
func (st *serveState) runClient(c, n int, stream string, m *measured, tr *tracer) clientResult {
	rg := newRNG(structSeed, stream+strconv.Itoa(c))
	var res clientResult
	res.samples = make([]serveSample, 0, n)
	fail := func(format string, args ...any) {
		if len(res.failures) < 10 {
			res.failures = append(res.failures, fmt.Sprintf(format, args...))
		} else {
			res.failures = append(res.failures, "")
		}
	}
	pick := func() *serveTenant {
		f := float64(rg.intn(1<<20)) / (1 << 20)
		i := int(float64(serveTenants) * f * f)
		i = i - i%st.clients + c
		if i >= serveTenants {
			i -= st.clients
		}
		prog := "authz"
		if rg.intn(2) == 1 {
			prog = "reach"
		}
		return st.tenants[prog][i]
	}
	slotOrder := rg.perm(len(serveSlots))
	sent := sha256.New()
	root := tr.begin(c, 0, "bench", "measured")
	admin, queries := 0, 0
	for i := 0; i < n; i++ {
		id := c*n + i + 1
		slot := serveSlots[slotOrder[i%len(serveSlots)]]
		var (
			path, kind string
			body       []byte
			t          *serveTenant
			check      func(code int, resp []byte)
			mirror     func()
		)
		switch slot {
		case "query":
			queries++
			checked := queries%serveCheckEvery == 0
			t = pick()
			q, want := t.query(rg, checked)
			kind, path = "eval", "/v1/programs/"+t.prog+"/eval"
			body = jsonBody("tenant", t.name, "query", q)
			if checked {
				check = func(code int, resp []byte) {
					res.checked++
					var r struct {
						Rows [][]string `json:"rows"`
					}
					if err := json.Unmarshal(resp, &r); err != nil || !sameRows(r.Rows, want) {
						fail("%s %s/%s %s: rows %v, model %v (err %v)", path, t.prog, t.name, q, r.Rows, want, err)
					}
				}
			}
			if st.mirrorSrv != nil {
				mirror = func() { res.mirror = append(res.mirror, st.mirrorQuery(tr, c, id, t, q)) }
			}
		case "all":
			t = pick()
			want := t.allFacts()
			kind, path = "eval", "/v1/programs/"+t.prog+"/eval"
			body = jsonBody("tenant", t.name)
			check = func(code int, resp []byte) {
				res.checked++
				var r struct {
					Facts []string `json:"facts"`
				}
				if err := json.Unmarshal(resp, &r); err != nil || strings.Join(r.Facts, ";") != strings.Join(want, ";") {
					fail("%s %s/%s all facts: got %d, model %d (err %v)", path, t.prog, t.name, len(r.Facts), len(want), err)
				}
			}
			if st.mirrorSrv != nil {
				mirror = func() { st.mirrorEvalAll(tr, c, id, t) }
			}
		case "facts":
			t = pick()
			assert, retract := t.mutate(rg)
			a, r := assert.String(), retract.String()
			kind, path = "facts", "/v1/programs/"+t.prog+"/facts"
			body = jsonBody("tenant", t.name, "assert", a, "retract", r)
			size := t.size()
			sent := time.Now()
			check = func(code int, resp []byte) {
				var out struct {
					DBVersion int `json:"db_version"`
					Size      int `json:"size"`
				}
				if err := json.Unmarshal(resp, &out); err != nil || out.Size != size {
					fail("%s %s/%s: size %d, model %d (err %v)", path, t.prog, t.name, out.Size, size, err)
				}
				if t.name == "t00" {
					st.feedMu.Lock()
					st.sentAt[t.prog+"/"+strconv.Itoa(out.DBVersion)] = sent
					st.feedMu.Unlock()
				}
			}
			if st.mirrorSrv != nil {
				mirror = func() { st.mirrorMutate(tr, c, id, t, assert, retract, a, r) }
			}
		case "admin":
			prog := []string{"authz", "reach"}[admin%2]
			switch (admin / 2) % 3 {
			case 0:
				path, body = "/v1/programs/"+prog+"/minimize", jsonBody("program_version", 1)
				check = func(code int, resp []byte) {
					var out struct {
						AtomsRemoved int `json:"atoms_removed"`
					}
					if err := json.Unmarshal(resp, &out); err != nil || out.AtomsRemoved != 1 {
						fail("%s: atoms_removed %d, want 1 (err %v)", path, out.AtomsRemoved, err)
					}
				}
			case 1:
				path, body = "/v1/programs/"+prog+"/compare", jsonBody("version_a", 1, "version_b", 2)
				check = func(code int, resp []byte) {
					var out struct {
						Equivalent bool `json:"equivalent"`
					}
					if err := json.Unmarshal(resp, &out); err != nil || !out.Equivalent {
						fail("%s: versions 1 and 2 reported not equivalent (err %v)", path, err)
					}
				}
			default:
				path, body = "/v1/programs/"+prog+"/vet", jsonBody("program_version", 1)
				check = func(code int, resp []byte) {
					var out struct {
						Errors bool `json:"errors"`
					}
					if err := json.Unmarshal(resp, &out); err != nil || out.Errors {
						fail("%s: a valid program vetted with errors (err %v)", path, err)
					}
				}
			}
			admin++
			kind = "admin"
		}

		st.lanes[c].tick()
		sent.Write([]byte(path))
		sent.Write(body)
		op := tr.begin(c, id, "bench", "op."+kind)
		h := tr.begin(c, id, "service", "service.http."+kind)
		t0 := time.Now()
		code, resp, err := st.post(path, body)
		done := time.Now()
		tr.end(h)
		m.add(c, t0, done.Sub(t0), kind == "eval")
		res.samples = append(res.samples, serveSample{kind: kind, start: t0, dur: done.Sub(t0), in: len(body), out: len(resp)})
		if kind == "eval" {
			res.evals++
		}
		switch {
		case err != nil || code != 200:
			fail("%s: status %d err %v: %.200s", path, code, err, resp)
		case check != nil:
			check(code, resp)
		}
		if mirror != nil {
			if slot == "query" {
				res.own = append(res.own, done.Sub(t0).Seconds())
			}
			mirror()
		}
		tr.end(op)
	}
	tr.end(root)
	res.requests = hex.EncodeToString(sent.Sum(nil))
	return res
}

func (t *serveTenant) allFacts() []string {
	if t.authz != nil {
		return t.authz.allFacts()
	}
	return t.reach.allFacts()
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], ",") != strings.Join(b[i], ",") {
			return false
		}
	}
	return true
}

// --- The library-side mirror of the traced run --------------------------------

// mirrorQuery answers the same query through core.Session on the client's
// own copy of the tenant database: what the request costs without HTTP,
// JSON, the registry and the entry lock. It returns the time taken.
func (st *serveState) mirrorQuery(tr *tracer, lane, id int, t *serveTenant, q string) float64 {
	t0 := time.Now()
	h := tr.begin(lane, id, "parser", "parse")
	qr, err := core.ParseProgram("Q__(1) :- " + q + ".")
	tr.end(h)
	if err != nil {
		return 0
	}
	h = tr.begin(lane, id, "core", "core.mirror_query")
	_, _, _ = st.mirrorSess[t.prog].Query(context.Background(), t.mirror, qr.Rules[0].Body[0])
	tr.end(h)
	return time.Since(t0).Seconds()
}

func (st *serveState) mirrorEvalAll(tr *tracer, lane, id int, t *serveTenant) {
	h := tr.begin(lane, id, "core", "core.mirror_eval")
	out, _, err := st.mirrorSess[t.prog].Eval(context.Background(), t.mirror)
	tr.end(h)
	if err != nil {
		return
	}
	h = tr.begin(lane, id, "db", "db.scan")
	_ = out.Facts()
	tr.end(h)
}

// mirrorMutate replays a mutation twice: through Server.MutateFacts of a
// second, HTTP-less server (the service layer's own share of a /facts
// round trip), and by hand on the client's copy — thaw, retract, compact,
// assert, freeze — which is the store's share.
func (st *serveState) mirrorMutate(tr *tracer, lane, id int, t *serveTenant, assert, retract fact, a, r string) {
	h := tr.begin(lane, id, "service", "service.mutate_direct")
	_, _, _ = st.mirrorSrv.MutateFacts(t.prog, t.name, a, r)
	tr.end(h)
	h = tr.begin(lane, id, "db", "db.thaw_mutate_freeze")
	w := t.mirror.Clone()
	if w.Remove(toCoreFact(retract)) {
		w.Compact()
	}
	w.Add(toCoreFact(assert))
	t.mirror = w.Freeze().DB()
	tr.end(h)
}

// --- The run -------------------------------------------------------------------

// servePass is one measured section: all clients, start to finish.
type servePass struct {
	samples   []serveSample
	m         *measured
	wall      float64  // raw wall of the pass, harness time included
	requests  []string // per client
	mirror    []float64
	own       []float64
	checked   int
	evals     int64
	failures  []string
	liveBytes uint64
}

func (st *serveState) runPass(n int, stream string, tr *tracer) servePass {
	results := make([]clientResult, st.clients)
	m := newMeasured(st.lanes[0].s, st.clients, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < st.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = st.runClient(c, n, stream, m, tr)
		}(c)
	}
	wg.Wait()
	p := servePass{m: m, wall: time.Since(start).Seconds()}
	for _, r := range results {
		p.samples = append(p.samples, r.samples...)
		p.requests = append(p.requests, r.requests)
		p.mirror = append(p.mirror, r.mirror...)
		p.own = append(p.own, r.own...)
		p.failures = append(p.failures, r.failures...)
		p.checked += r.checked
		p.evals += r.evals
	}
	return p
}

// durations returns one request kind's latencies in reference time.
func (p servePass) durations(kind string) []float64 {
	tl := p.m.speed.timeline()
	var out []float64
	for _, s := range p.samples {
		if s.kind == kind {
			at := s.start.Sub(p.m.speed.epoch).Seconds() + s.dur.Seconds()/2
			out = append(out, s.dur.Seconds()/tl.factorAt(at))
		}
	}
	return out
}

func runServeMixed(cfg config, spec *benchSpec) (*runResult, error) {
	res := newResult(spec, cfg)
	n := max(40, int(cfg.seconds*serveRequestsPerClientSecond))
	if cfg.trace {
		n /= 2
	}
	speed := newSpeedometer()
	lane := speed.lane()
	var lanes []*speedLane
	for c := 0; c < serveClients(); c++ {
		lanes = append(lanes, speed.lane())
	}
	baseline := heapLive()

	pass := func(tr *tracer) (servePass, *serveState, float64, error) {
		var st *serveState
		setup, err := medianSetup(cfg.setupReps(), lane, func(rep int) error {
			if st != nil {
				st.close()
			}
			var err error
			st, err = serveSetup(cfg.seed, max(20, n/20), tr != nil, lanes)
			return err
		})
		if err != nil {
			return servePass{}, nil, 0, err
		}
		runtime.GC()
		p := st.runPass(n, "serve-client-", tr)
		p.liveBytes = liveSince(baseline) // the server, its snapshot chains and views are still referenced
		res.Attempted += len(p.samples)
		for _, f := range p.failures {
			res.fail("serve-mixed: %s", f)
		}
		st.finishPass(&p, res)
		return p, st, setup, nil
	}

	p, st, setup, err := pass(nil)
	if err != nil {
		return nil, err
	}
	st.close()
	sec := p.m.finish()
	res.setEndToEnd(setup, sec, p.liveBytes)
	res.Detail["pass_raw_wall_s"] = p.wall
	res.Detail["clients"] = st.clients
	res.Detail["requests"] = len(p.samples)
	res.Detail["oracle_checked"] = p.checked
	mut := p.durations("facts")
	res.Detail["mutate_samples"] = len(mut)
	res.set("service.mutate_p50_ms", median(mut)*1e3)
	res.set("service.mutate_tail_ms", percentile(mut, tailQuantile(len(mut)))*1e3)
	// Wire bytes are counted over /eval and /facts: their bodies are a
	// function of the inputs alone (the admin replies carry cache counters).
	var in, out, wired int
	for _, s := range p.samples {
		if s.kind != "admin" {
			in, out, wired = in+s.in, out+s.out, wired+1
		}
	}
	res.set("service.wire_in_bytes_per_req", float64(in)/float64(wired))
	res.set("service.wire_out_bytes_per_req", float64(out)/float64(wired))
	// The digests cover the requests sent and the tenants' final state; the
	// replies are checked by the models, and their byte count is a metric.
	res.Digests["serve-mixed.requests"] = sha(p.requests...)
	var final []string
	for _, prog := range []string{"authz", "reach"} {
		for _, t := range st.tenants[prog] {
			final = append(final, strings.Join(t.allFacts(), "\n"))
		}
	}
	res.Digests["serve-mixed.final_state"] = sha(final...)

	if cfg.trace {
		tr := newTracer(speed)
		tp, tst, _, err := pass(tr)
		if err != nil {
			return nil, err
		}
		tst.close()
		tsec := tp.m.finish()
		res.set("bench.trace_overhead_share", tsec.wall/sec.wall-1)
		res.setSpanMetrics(tr)
		res.set("service.http_overhead_us", (median(tp.own)-median(tp.mirror))*1e6/tsec.factor)
		res.Detail["raw_traced_eval_p50_us"] = median(tp.own) * 1e6
		res.Detail["raw_mirror_eval_p50_us"] = median(tp.mirror) * 1e6
		res.set("service.mutate_direct_us", median(tr.durations("service.mutate_direct"))*1e6)
		res.set("db.thaw_mutate_freeze_us", median(tr.durations("db.thaw_mutate_freeze"))*1e6)
		if err := cfg.writeTrace(tr); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

// finishPass reads /v1/statz, settles the changefeeds and reports the
// feed's health: lag, drops, sequence gaps, and whether the server counted
// exactly the evals that were sent.
func (st *serveState) finishPass(p *servePass, res *runResult) {
	resp, err := st.client.Get(st.srv.URL + "/v1/statz")
	if err != nil {
		res.fail("serve-mixed: /v1/statz: %v", err)
		return
	}
	var statz struct {
		Requests struct {
			Evals int64 `json:"evals"`
		} `json:"requests"`
	}
	err = json.NewDecoder(resp.Body).Decode(&statz)
	resp.Body.Close()
	sent := st.evalsSent + p.evals
	if err != nil || statz.Requests.Evals != sent {
		res.fail("serve-mixed: /v1/statz counts %d evals, %d were sent (err %v)", statz.Requests.Evals, sent, err)
	}
	res.set("service.statz_eval_mismatch", float64(statz.Requests.Evals-sent))

	// Every acknowledged mutation of a subscribed tenant must have produced
	// a frame; wait briefly for the last ones to be read.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st.feedMu.Lock()
		missing := 0
		for k := range st.sentAt {
			if _, ok := st.frameAt[k]; !ok {
				missing++
			}
		}
		st.feedMu.Unlock()
		if missing == 0 || time.Now().After(deadline) {
			if missing > 0 {
				res.fail("serve-mixed: %d acknowledged mutations never reached the changefeed", missing)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.feedMu.Lock()
	defer st.feedMu.Unlock()
	var lags []float64
	for k, sent := range st.sentAt {
		if at, ok := st.frameAt[k]; ok {
			lags = append(lags, at.Sub(sent).Seconds())
		}
	}
	res.set("service.feed_lag_ms", median(lags)*1e3)
	res.set("service.frames_dropped", float64(st.dropped))
	res.set("service.seq_gaps", float64(st.seqGaps))
	res.Detail["feed_frames"] = st.frames
	if st.dropped > 0 || st.seqGaps > 0 || len(st.feedErrors) > 0 {
		res.fail("serve-mixed: changefeed dropped %d, gaps %d, errors %v", st.dropped, st.seqGaps, st.feedErrors)
	}
}
