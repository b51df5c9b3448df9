package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
)

// cmdServe runs the long-lived multi-tenant query server: named, versioned
// programs behind HTTP/JSON endpoints (register, facts, subscriptions,
// eval, minimize, compare, vet, explain, statz), all sharing the
// process-wide plan cache and verdict store. The facts endpoint takes
// assert/retract mutation batches, and subscriptions stream the maintained
// output diff of each batch as NDJSON changefeed frames.
// Positional arguments of the form name=file preload
// program versions before the listener opens, so a deployment can ship its
// programs on the command line and tenants only push facts and queries.
func (c *cli) cmdServe(rest []string) error {
	srv := service.New()
	for _, arg := range rest {
		name, file, ok := strings.Cut(arg, "=")
		if !ok || name == "" || file == "" {
			return fmt.Errorf("serve: argument %q is not name=file", arg)
		}
		src, err := read(file)
		if err != nil {
			return err
		}
		version, rules, tgds, err := srv.RegisterProgram(name, src)
		if err != nil {
			return fmt.Errorf("serve: register %s: %w", name, err)
		}
		fmt.Fprintf(c.out, "registered %s v%d (%d rules, %d tgds)\n", name, version, rules, tgds)
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "datalog serve: listening on http://%s\n", ln.Addr())
	// Header-read and idle timeouts bound what a slow or stalled client can
	// hold open, so a long-running multi-tenant deployment is not trivially
	// exhaustible by slowloris-style connections. Request bodies and
	// responses carry no blanket timeout: evaluation time is governed
	// per-request by the budget's deadline.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return hs.Serve(ln)
}
