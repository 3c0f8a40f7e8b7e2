// Command eimdb-serve exposes an energy-aware in-memory engine over
// HTTP: the online serving front end (internal/server) wired to a real
// monotonic clock and a demo orders table.
//
//	eimdb-serve -addr :8080 -rows 262144 -budget 4 -batch -arbitrate
//
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/query \
//	     -d '{"sql":"SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 7"}'
//	curl -s localhost:8080/v1/stats | jq .plan_cache
//
// Per-client energy budgets come from repeated -client flags:
//
//	eimdb-serve -client alice=2.5 -client bob=0.1
//	curl -s -X POST -H 'X-API-Key: bob' localhost:8080/v1/query -d '{"sql":"..."}'
//
// Once a client's admitted plan estimates exceed its allowance, further
// queries are rejected 402-style until the server restarts.
//
// Lifecycle: on SIGINT or SIGTERM the server stops accepting connections
// and exits once every request in flight — parked on its virtual
// schedule or still executing — has been answered, or after 30 seconds
// at the latest, and then flushes the REDO log once, so commits that rode
// an open group-commit window are durable.  A connection that has not
// sent its request headers within ten seconds is dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/opt"
	"repro/internal/server"
)

// realClock implements server.Clock over the process monotonic clock.
// It lives here, outside internal/server, so the serving package stays
// under the determinism lint contract (no wall-clock reads).
type realClock struct{ epoch time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.epoch) }

func (c realClock) Schedule(at time.Duration, wake func()) {
	d := at - c.Now()
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, wake)
}

// Connection and shutdown timeouts.
//
//   - readHeaderTimeout bounds how long a client may take to send its
//     request headers.
//   - writeTimeout bounds one request from the end of its headers to the
//     last byte of its response, so a client that stops reading cannot
//     hold a connection and its handler forever.  It is generous: queueing
//     and executing a statement take milliseconds, and the largest body
//     the server renders (its 64 MiB response cap) reaches a client that
//     reads at 1 MiB/s in about 64 s.
//   - idleTimeout closes a keep-alive connection that has carried no
//     request for that long.  A closed-loop client never idles that long,
//     and one that does pays only a reconnect.
//   - drainTimeout bounds how long a shutdown waits for in-flight
//     requests; a response still writing when it expires is cut off.
const (
	readHeaderTimeout = 10 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 30 * time.Second
)

// clientFlags collects repeated -client key=joules pairs.
type clientFlags map[string]energy.Joules

func (c clientFlags) String() string { return fmt.Sprintf("%d clients", len(c)) }

func (c clientFlags) Set(v string) error {
	key, allowance, ok := strings.Cut(v, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=joules, got %q", v)
	}
	j, err := strconv.ParseFloat(allowance, 64)
	if err != nil {
		return fmt.Errorf("bad allowance in %q: %w", v, err)
	}
	c[key] = energy.Joules(j)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rows := flag.Int("rows", 1<<18, "demo orders table cardinality")
	budget := flag.Int("budget", 4, "global core budget")
	queue := flag.Int("queue", 64, "admission queue depth (0 = unbounded)")
	batch := flag.Bool("batch", true, "shared-scan batching of queued lookalike queries")
	arbitrate := flag.Bool("arbitrate", true, "P-state DOP arbitration (false = naive FCFS)")
	objective := flag.String("objective", "min-energy", "default objective: min-time, min-energy, or min-edp")
	mergeAt := flag.Int("merge-delta-rows", 4096, "delta rows before a background merge is offered (0 = never)")
	clients := clientFlags{}
	flag.Var(clients, "client", "API key energy allowance as key=joules (repeatable)")
	flag.Parse()

	var obj opt.Objective
	switch *objective {
	case "min-time":
		obj = opt.MinTime
	case "min-energy":
		obj = opt.MinEnergy
	case "min-edp":
		obj = opt.MinEDP
	default:
		fmt.Fprintf(os.Stderr, "eimdb-serve: unknown objective %q\n", *objective)
		os.Exit(2)
	}

	eng, err := core.OrdersEngine(*rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eimdb-serve:", err)
		os.Exit(1)
	}
	srv := server.New(eng, server.Config{
		Sched: core.SchedulerConfig{
			Budget:     *budget,
			QueueDepth: *queue,
			BatchScans: *batch,
			Arbitrate:  *arbitrate,
		},
		Objective:      obj,
		Clients:        clients,
		MergeDeltaRows: *mergeAt,
	}, realClock{epoch: time.Now()})

	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout: writeTimeout, IdleTimeout: idleTimeout}
	stop, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	fmt.Printf("eimdb-serve: %d-row orders table, budget %d, listening on %s\n", *rows, *budget, *addr)

	select {
	case err := <-served: // never ErrServerClosed here: nothing has shut the server down
		fmt.Fprintln(os.Stderr, "eimdb-serve:", err)
		os.Exit(1)
	case <-stop.Done():
	}
	cancel() // a second signal kills the process the default way
	fmt.Println("eimdb-serve: shutting down, draining in-flight requests")
	ctx, done := context.WithTimeout(context.Background(), drainTimeout)
	defer done()
	drain := hs.Shutdown(ctx)
	// Commits that rode the open group-commit window are durable only at
	// the next flush: take it even when the drain timed out.  Sync holds
	// the transaction manager's lock, so a handler still running cannot
	// interleave with it.
	_, flush := eng.Txn().Sync()
	failed := false
	if drain != nil {
		fmt.Fprintln(os.Stderr, "eimdb-serve: drain:", drain)
		failed = true
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "eimdb-serve:", err)
		failed = true
	}
	if flush != nil {
		fmt.Fprintln(os.Stderr, "eimdb-serve: log flush:", flush)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
