package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe for the serve goroutine to write while
// the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeCommand is the end-to-end smoke of `datalog serve`: boot the
// server on an ephemeral port with a preloaded program, load facts for a
// tenant, and run an eval round-trip plus the statz and healthz probes.
func TestServeCommand(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "authz.dl")
	src := "CanRead(u, d) :- Member(u, g), Grant(g, d).\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		// http.Serve never returns on success; the goroutine is torn down
		// with the test process.
		errc <- run([]string{"-addr", "127.0.0.1:0", "serve", "authz=" + prog}, out)
	}()

	// Wait for the listener line and extract the bound address.
	re := regexp.MustCompile(`listening on (http://[^\s]+)`)
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		select {
		case err := <-errc:
			t.Fatalf("serve exited early: %v\noutput:\n%s", err, out.String())
		default:
		}
		if m := re.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not announce its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "registered authz v1 (1 rules, 0 tgds)") {
		t.Fatalf("missing preload line:\n%s", out.String())
	}

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, sb.String())
		}
		return sb.String()
	}
	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		s := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, s)
		}
		return s
	}

	if s := get("/v1/healthz"); !strings.Contains(s, "ok") {
		t.Fatalf("healthz: %s", s)
	}
	post("/v1/programs/authz/facts",
		`{"tenant":"acme","assert":"Member(\"ann\",\"eng\").\nGrant(\"eng\",\"handbook\")."}`)
	evalOut := post("/v1/programs/authz/eval",
		`{"tenant":"acme","query":"CanRead(u, d)"}`)
	if !strings.Contains(evalOut, "ann") || !strings.Contains(evalOut, "handbook") {
		t.Fatalf("eval response missing derived row: %s", evalOut)
	}
	statz := get("/v1/statz")
	for _, want := range []string{"plan_cache", "verdict_store", "requests"} {
		if !strings.Contains(statz, want) {
			t.Fatalf("statz missing %q: %s", want, statz)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestServeBadArgs pins the name=file argument contract.
func TestServeBadArgs(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"serve", "authz"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "not name=file") {
		t.Fatalf("err = %v, want name=file usage error", err)
	}
}
