// Package server is eimdb's online SQL serving front end: an HTTP/JSON
// door onto core.Engine's scheduling loop (core.Loop), serving
// continuous open-loop traffic — arrivals, admission control,
// shared-scan batching of queued lookalikes, revocable-lease resizes,
// and completions all interleave per request.
//
// Endpoints (all under /v1):
//
//	POST /v1/query   {"sql": "...", "objective": "min-energy", "client": "key"}
//	POST /v1/write   {"sql": "INSERT|UPDATE|DELETE ...", "client": "key"}
//	GET  /v1/stats   plan-cache counters, energy books, per-client budgets
//	GET  /v1/healthz liveness
//
// Every error response, on every route, carries one envelope: {"error":{"code":"...","message":"...","retry_after_s":N}}
// (retry_after_s only on 429s, mirroring the Retry-After header).
//
// Writes execute synchronously at their arrival instant — INSERT appends
// to the table's delta, UPDATE/DELETE tombstone through MVCC — and are
// admission-gated by the same per-client budgets as queries, charging
// the catalog-statistics estimate (opt.EstimateDML).  Once a table's
// delta passes Config.MergeDeltaRows, the server offers a background
// merge-as-a-query (core.Loop.OfferMerge): an energy-priced compaction
// ticket that waits behind foreground traffic and re-seals the delta.
// DML and completed merges invalidate the plan cache (statistics may
// have shifted).
//
// Execution and locking: a query starts executing when the virtual
// machine dispatches it (core.Loop), on a goroutine of its own and on
// real cores, while its handler is parked and its modeled schedule
// elapses; it is answered at max(virtual finish, real finish).  The
// server's one mutex guards the books only — admission, the plan cache,
// the schedule, the energy accounts — and nothing runs a plan, or waits
// for one, while holding it on the HTTP path (a background merge, which
// still executes inside the event that retires it, is the exception).
// ARCHITECTURE.md's serving section has the lock-discipline table.
//
// Time discipline: the server never reads a wall clock — all timing
// flows through the Clock interface, so tests drive a SimClock and the
// whole front end becomes a deterministic discrete-event simulation
// (fixed seed + fixed arrival script ⇒ byte-identical response bodies
// and attributed energy books at every core budget and batching
// setting).  Response BODIES therefore carry only schedule-invariant
// facts: the relation, the attributed work counters, and the per-query
// energy bill.  Schedule-dependent facts (latency, DOP, group size,
// sharing, cache outcome) travel as X-Eimdb-* response headers.
//
// Per-client energy budgets charge the PLAN ESTIMATE at admission, not
// the measured bill at completion: admission outcomes then depend only
// on the arrival script, never on completion timing, which keeps
// 402-style rejections deterministic across core budgets.  The measured
// spend is still tracked per client in /v1/stats.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Config parameterizes New.
type Config struct {
	// Sched is the multi-query scheduler configuration the loop runs
	// under (core budget, queue depth, batching, arbitration).
	Sched core.SchedulerConfig
	// Objective is the default objective for requests that do not name
	// one: it sets the query's scheduler goal (plans do not depend on it).
	Objective opt.Objective
	// Clients is the API-key → attributed-energy allowance table.
	// Requests carrying a key (X-API-Key header or "client" field) are
	// admitted only while the client's committed estimates fit its
	// allowance; past it they are rejected 402-style.  Requests with no
	// key are anonymous and unmetered; unknown keys are 401s.
	Clients map[string]energy.Joules
	// MergeDeltaRows is the delta-row threshold past which a write
	// triggers a background merge offer for its table (0 disables
	// auto-merge; merges can then only come from explicit harness calls).
	MergeDeltaRows int
}

// planEntry is one cached prepared statement: a plan node (re-runnable,
// also concurrently with itself) plus the planner's report, keyed by both
// the raw text and the ShareSig canonical signature.
type planEntry struct {
	node exec.Node
	info *opt.PlanInfo
}

// clientBook is one API key's energy account.
type clientBook struct {
	allowance   energy.Joules
	committed   energy.Joules // plan estimates charged at admission
	spent       energy.Joules // measured attributed bills at completion
	rejected402 uint64
}

// noWake is armed's value when no clock wake is outstanding.
const noWake time.Duration = -1

// Server is the HTTP front end.  It implements http.Handler.
//
// Lock order: mu, then the engine's data latch (ExecDML and merge
// execution take it under mu, and a plan-cache miss shares it to price
// the plan), never the reverse — an executing query
// holds the latch and takes nothing.  Handlers wait for a ticket
// (Ticket.Settled) only with mu released.
type Server struct {
	clock Clock
	mux   *http.ServeMux

	mu       sync.Mutex
	eng      *core.Engine
	loop     *core.Loop
	cfg      Config
	texts    map[string]*planEntry // raw text → entry
	sigs     map[string]*planEntry // ShareSig → entry
	textHits uint64
	sigHits  uint64
	misses   uint64
	clients  map[string]*clientBook
	inflight map[int]string  // admitted, unsettled ticket → its API key (keyed requests only)
	armed    time.Duration   // earliest clock wake scheduled and not yet fired (noWake: none)
	merging  map[string]bool // tables with an offered, unfinished merge
	writes   uint64          // DML statements applied
	merges   uint64          // background merges completed
}

// New builds a server over an engine whose tables are loaded and
// sealed.  The clock is the server's only source of time.
func New(eng *core.Engine, cfg Config, clock Clock) *Server {
	s := &Server{
		clock:    clock,
		eng:      eng,
		loop:     eng.NewLoop(cfg.Sched),
		cfg:      cfg,
		texts:    make(map[string]*planEntry),
		sigs:     make(map[string]*planEntry),
		clients:  make(map[string]*clientBook),
		inflight: make(map[int]string),
		armed:    noWake,
		merging:  make(map[string]bool),
	}
	s.loop.OnExecuted(s.onExecuted)
	if sc, ok := clock.(*SimClock); ok {
		sc.mu.Lock()
		sc.state = s.loopState
		sc.mu.Unlock()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/write", s.handleWrite)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	return s
}

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	SQL       string `json:"sql"`
	Objective string `json:"objective,omitempty"`
	Client    string `json:"client,omitempty"`
}

// queryResponse is the 200 body: schedule-invariant facts only, so the
// bytes are identical at every core budget and batching setting.
// renderTicket writes these bytes without building the value; the type
// stays as the format's definition (and what clients and tests decode).
type queryResponse struct {
	ID        int             `json:"id"`
	Objective string          `json:"objective"`
	Columns   []string        `json:"columns"`
	Rows      [][]any         `json:"rows"`
	Work      energy.Counters `json:"work"`
	Energy    responseEnergy  `json:"energy"`
}

type responseEnergy struct {
	Joules    float64          `json:"joules"`
	Breakdown energy.Breakdown `json:"breakdown"`
}

// reqError is an admission-path failure with its HTTP mapping.
type reqError struct {
	status     int
	code       string
	msg        string
	retryAfter int // seconds; > 0 adds a Retry-After header
}

// errEnvelope is the one error shape every route returns:
// {"error":{"code","message","retry_after_s?"}}.  Machine
// retry logic keys on code; message is for humans.
type errEnvelope struct {
	Error errDetail `json:"error"`
}

type errDetail struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// errBody renders the uniform error payload.
func errBody(code, msg string, retryAfter int) []byte {
	b, _ := json.Marshal(errEnvelope{Error: errDetail{Code: code, Message: msg, RetryAfterS: retryAfter}})
	return append(b, '\n')
}

// parseObjective maps a request's objective name (empty = the server
// default) onto the optimizer objective.
func (s *Server) parseObjective(name string) (opt.Objective, bool) {
	switch name {
	case "":
		return s.cfg.Objective, true
	case opt.MinTime.String():
		return opt.MinTime, true
	case opt.MinEnergy.String():
		return opt.MinEnergy, true
	case opt.MinEDP.String():
		return opt.MinEDP, true
	}
	return 0, false
}

// lookupLocked resolves text through the two-level plan cache: exact
// text (skips parse and plan) first, then the ShareSig canonical
// signature (skips plan — differently spelled but canonically equal
// queries share one prepared plan), then a full parse+plan miss that
// fills both levels.  A plan does not depend on the objective, so
// requests under every objective share one entry.
func (s *Server) lookupLocked(text string) (*planEntry, bool, error) {
	if e := s.texts[text]; e != nil {
		s.textHits++
		return e, true, nil
	}
	q, err := sql.Parse(text)
	if err != nil {
		return nil, false, err
	}
	sig := q.String()
	if e := s.sigs[sig]; e != nil {
		s.sigHits++
		s.texts[text] = e
		return e, true, nil
	}
	node, info, err := s.eng.Plan(q, s.cfg.Objective)
	if err != nil {
		return nil, false, err
	}
	s.misses++
	e := &planEntry{node: node, info: info}
	s.texts[text] = e
	s.sigs[sig] = e
	return e, false, nil
}

// retryAfterSeconds derives the 429 Retry-After hint from the
// virtual-time backlog: the admitted serial CPU seconds still owed,
// spread over the core budget, rounded up (floor 1s).
func retryAfterSeconds(backlog time.Duration, budget int) int {
	if budget < 1 {
		budget = 1
	}
	secs := int((backlog + time.Duration(budget)*time.Second - 1) / (time.Duration(budget) * time.Second))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// bookLocked resolves a client's energy account and checks the estimate
// against its remaining allowance: nil book for anonymous requests, 401
// for unknown keys, 402 once the committed sum would overflow.  The
// caller commits the estimate only after its own admission succeeds.
func (s *Server) bookLocked(client string, est energy.Joules) (*clientBook, *reqError) {
	if client == "" {
		return nil, nil
	}
	book := s.clients[client]
	if book == nil {
		allowance, known := s.cfg.Clients[client]
		if !known {
			return nil, &reqError{status: http.StatusUnauthorized, code: "unknown_api_key",
				msg: fmt.Sprintf("unknown api key %q", client)}
		}
		book = &clientBook{allowance: allowance}
		s.clients[client] = book
	}
	if book.committed+est > book.allowance {
		book.rejected402++
		return nil, &reqError{status: http.StatusPaymentRequired, code: "energy_budget_exhausted",
			msg: fmt.Sprintf("energy budget exhausted: committed %.6g J of %.6g J allowance, request needs %.6g J",
				float64(book.committed), float64(book.allowance), float64(est))}
	}
	return book, nil
}

// admitLocked runs the admission pipeline for one arrival at virtual
// time `at`: objective resolution, plan-cache lookup (400 on parse or
// plan failure), per-client budget check (402-style on exhaustion),
// then the scheduler's own admission (429 + Retry-After on queue
// overflow).  The client's estimate is committed only after the
// scheduler accepts.  Callers must invoke React (directly or via
// deliverLocked flows) after the last offer of an instant.
func (s *Server) admitLocked(at time.Duration, client, text, objName string) (*core.Ticket, bool, *reqError) {
	obj, ok := s.parseObjective(objName)
	if !ok {
		return nil, false, &reqError{status: http.StatusBadRequest, code: "bad_request",
			msg: fmt.Sprintf("unknown objective %q (want min-time, min-energy, or min-edp)", objName)}
	}
	entry, hit, err := s.lookupLocked(text)
	if err != nil {
		return nil, false, &reqError{status: http.StatusBadRequest, code: "bad_request", msg: err.Error()}
	}
	book, rerr := s.bookLocked(client, entry.info.Est.Energy)
	if rerr != nil {
		return nil, hit, rerr
	}
	t := s.loop.OfferPlanned(at, entry.node, entry.info, obj)
	if t.Rejected {
		return nil, hit, &reqError{status: http.StatusTooManyRequests, code: "queue_full",
			msg:        "admission queue full",
			retryAfter: retryAfterSeconds(s.loop.Backlog(), s.cfg.Sched.Budget)}
	}
	if book != nil {
		book.committed += entry.info.Est.Energy
		s.inflight[t.ID] = client
	}
	return t, hit, nil
}

// invalidatePlansLocked drops every cached plan: after a write or a
// merge the catalog statistics have shifted, so cached nodes would run
// with stale estimates.  Hit
// counters survive — they describe lookups, not entries.
func (s *Server) invalidatePlansLocked() {
	s.texts = make(map[string]*planEntry)
	s.sigs = make(map[string]*planEntry)
}

// deliverLocked books settled tickets on the server's side: a keyed
// request's measured bill is credited to its client (the handler itself
// is released by the ticket's own Settled channel).  Completed merge
// tickets (the only maintenance this server offers) retire their table's
// in-progress mark and invalidate the plan cache (the re-sealed layout
// re-prices every scan).
func (s *Server) deliverLocked(done []*core.Ticket) {
	for _, t := range done {
		if t.Table != "" {
			delete(s.merging, t.Table)
			if t.Err == nil {
				s.merges++
				s.invalidatePlansLocked()
			}
			continue
		}
		if client, ok := s.inflight[t.ID]; ok {
			delete(s.inflight, t.ID)
			if t.Err == nil {
				s.clients[client].spent += t.Energy.Total()
			}
		}
	}
}

// pumpLocked arms the clock for the next scheduled completion — unless a
// wake at or before it is already outstanding: that wake pumps again, so
// one timer per finish event is enough however many requests re-derive
// the same finish meanwhile.  Stale wakes (the finish moved later) are
// harmless: wake re-derives everything from the loop.
func (s *Server) pumpLocked() {
	f, ok := s.loop.NextFinish()
	if !ok || (s.armed != noWake && s.armed <= f) {
		return
	}
	s.armed = f
	s.clock.Schedule(f, func() { s.wake(f) })
}

// wake is the clock's callback for the wake armed at `at`: it advances
// the loop to the clock and books whatever settled.
func (s *Server) wake(at time.Duration) {
	now := s.clock.Now()
	s.mu.Lock()
	if s.armed == at {
		s.armed = noWake
	}
	s.deliverLocked(s.loop.AdvanceTo(now))
	s.pumpLocked()
	s.mu.Unlock()
}

// loopState reports the virtual machine for SimClock's stall panic: its
// time, its next finish and the groups holding and awaiting cores.
func (s *Server) loopState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.loop.NextFinish()
	return fmt.Sprintf("loop at %v, next finish %v (%v), armed %v, %d groups running, %d queued",
		s.loop.Now(), f, ok, s.armed, s.loop.Running(), s.loop.Queued())
}

// onExecuted is the loop's execution-finished hook, called on the
// execution's goroutine with nothing held: a group whose virtual
// schedule was already over settles now, not at the next event.
func (s *Server) onExecuted() {
	s.mu.Lock()
	s.deliverLocked(s.loop.Settle())
	s.mu.Unlock()
}

// maxResponseRows caps the rows one response renders — 100× the largest
// result any benchmark or experiment statement returns.  Uncapped, a
// `SELECT * FROM orders` JSON-encodes every row of the table (tens of
// megabytes per request; a handful of them at once is an OOM kill that no
// panic isolation can catch).  (A variable only so the envelope test can
// lower it.)
var maxResponseRows = 1 << 20

// maxResponseBytes caps the bytes one response body renders — the row cap
// alone no longer bounds it, since a string column holds 8-byte codes and
// 2^20 rows of one long string render far more JSON than the relation
// holds.  64 MiB is over a hundred times the largest body a benchmark
// statement renders.  (A variable only so a test can lower it.)
var maxResponseBytes = 64 << 20

// renderTicket turns a settled ticket into its HTTP status and body: the
// bytes json.Marshal gives a queryResponse, appended straight from the
// relation's typed columns — no row is boxed into []any on the way (a
// ~10K-group answer spent most of the server's own time there).
func renderTicket(t *core.Ticket) (int, []byte) {
	switch {
	case errors.Is(t.Err, exec.ErrResultTooLarge):
		// The statement, not the server, is at fault: a join asked to
		// materialize a near cross product (or, below, more rows than a
		// response renders).
		return http.StatusUnprocessableEntity, errBody("result_too_large", t.Err.Error(), 0)
	case t.Err != nil:
		return http.StatusInternalServerError, errBody("internal", t.Err.Error(), 0)
	case t.Rel.N > maxResponseRows:
		err := fmt.Errorf("%w: %d rows, a response renders at most %d", exec.ErrResultTooLarge, t.Rel.N, maxResponseRows)
		return http.StatusUnprocessableEntity, errBody("result_too_large", err.Error(), 0)
	}
	rel := t.Rel
	b := make([]byte, 0, 512+16*rel.N*len(rel.Cols))
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(t.ID), 10)
	b = append(b, `,"objective":`...)
	b = appendJSONString(b, t.Objective.String())
	b = append(b, `,"columns":[`...)
	for ci := range rel.Cols {
		if ci > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, rel.Cols[ci].Name)
	}
	b = append(b, `],"rows":[`...)
	for r := 0; r < rel.N; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for ci := range rel.Cols {
			if ci > 0 {
				b = append(b, ',')
			}
			switch c := &rel.Cols[ci]; c.Type {
			case colstore.Int64:
				b = strconv.AppendInt(b, c.I[r], 10)
			case colstore.Float64:
				if f := c.F[r]; math.IsNaN(f) || math.IsInf(f, 0) {
					return http.StatusInternalServerError, errBody("internal",
						fmt.Sprintf("column %q row %d: %v has no JSON form", c.Name, r, f), 0)
				}
				b = appendJSONFloat(b, c.F[r])
			default:
				b = appendJSONString(b, c.Str(r))
			}
		}
		b = append(b, ']')
		if len(b) > maxResponseBytes {
			err := fmt.Errorf("%w: %d rows render past the %d-byte response cap", exec.ErrResultTooLarge, r+1, maxResponseBytes)
			return http.StatusUnprocessableEntity, errBody("result_too_large", err.Error(), 0)
		}
	}
	work, _ := json.Marshal(t.Work) // integer counters: cannot fail
	energy, err := json.Marshal(responseEnergy{Joules: float64(t.Energy.Total()), Breakdown: t.Energy})
	if err != nil {
		return http.StatusInternalServerError, errBody("internal", err.Error(), 0)
	}
	b = append(b, `],"work":`...)
	b = append(b, work...)
	b = append(b, `,"energy":`...)
	b = append(b, energy...)
	return http.StatusOK, append(b, '}', '\n')
}

// appendJSONFloat appends a finite float in encoding/json's format: the
// shortest digits that round-trip, exponent form below 1e-6 and from
// 1e21 up, with the exponent's leading zero dropped (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends a string as encoding/json quotes it.  Printable
// ASCII with nothing to escape — every value this engine's workloads
// produce — is copied between quotes; anything else (quotes, backslashes,
// control bytes, the HTML-sensitive <>&, non-ASCII, invalid UTF-8) goes
// through json.Marshal itself, so the escaping rules live in one place.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// writeJSON writes a response body with its status.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeReqError(w http.ResponseWriter, e *reqError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.retryAfter))
	}
	writeJSON(w, e.status, errBody(e.code, e.msg, e.retryAfter))
}

// maxBodyBytes caps a request body: a statement is a line of SQL, and an
// uncapped decoder would buffer whatever a client cares to send.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into req, reading at most
// maxBodyBytes of it.  On failure it has written the error response —
// 413 body_too_large past the cap, 400 bad_request for anything else —
// and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errBody("body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), 0))
	} else {
		writeJSON(w, http.StatusBadRequest, errBody("bad_request", "bad request body: "+err.Error(), 0))
	}
	return false
}

// handleQuery is the serving hot path: decode, advance the loop to the
// arrival instant, admit, react (a free core dispatches the query and
// its execution starts), then park — off the mutex — until the ticket
// settles (or the request context cancels the lease).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errBody("method_not_allowed", "POST only", 0))
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errBody("bad_request", "missing sql", 0))
		return
	}
	client := r.Header.Get("X-API-Key")
	if client == "" {
		client = req.Client
	}
	now := s.clock.Now() // sampled before s.mu: the clock may not be read under it

	s.mu.Lock()
	s.deliverLocked(s.loop.AdvanceTo(now))
	t, hit, rerr := s.admitLocked(now, client, req.SQL, req.Objective)
	s.deliverLocked(s.loop.React())
	s.pumpLocked()
	s.mu.Unlock()
	if rerr != nil {
		writeReqError(w, rerr)
		return
	}

	select {
	case <-t.Settled():
	case <-r.Context().Done():
		// The client went away: revoke the lease (running operators
		// stop at the next morsel boundary) and abandon the response.
		s.mu.Lock()
		t.Cancel()
		s.mu.Unlock()
		return
	}
	status, body := renderTicket(t)
	w.Header().Set("X-Eimdb-Latency", t.Latency.String())
	w.Header().Set("X-Eimdb-Dop", fmt.Sprintf("%d", t.DOP))
	w.Header().Set("X-Eimdb-Group-Size", fmt.Sprintf("%d", t.GroupSize))
	w.Header().Set("X-Eimdb-Shared", fmt.Sprintf("%t", t.Shared))
	w.Header().Set("X-Eimdb-Cache", cacheLabel(hit))
	writeJSON(w, status, body)
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	VirtualNowNS int64                  `json:"virtual_now_ns"`
	Queued       int                    `json:"queued"`
	Running      int                    `json:"running"`
	Completed    int                    `json:"completed"`
	Rejected     int                    `json:"rejected"`
	Writes       uint64                 `json:"writes"`
	Merges       uint64                 `json:"merges"`
	PlanCache    statsCache             `json:"plan_cache"`
	Energy       statsEnergy            `json:"energy"`
	Work         statsWork              `json:"work"`
	Clients      map[string]statsClient `json:"clients"`
}

type statsCache struct {
	Hits     uint64 `json:"hits"`
	TextHits uint64 `json:"text_hits"`
	SigHits  uint64 `json:"sig_hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
}

type statsEnergy struct {
	// AttributedDynamicJ is the sum of every completed query's
	// standalone dynamic bill; FleetDynamicJ prices the work physically
	// performed (shared groups charged once).  The gap is exactly
	// SavedDynamicJ — the shared-scan batching saving.
	AttributedDynamicJ float64 `json:"attributed_dynamic_j"`
	FleetDynamicJ      float64 `json:"fleet_dynamic_j"`
	SavedDynamicJ      float64 `json:"saved_dynamic_j"`
	StaticJ            float64 `json:"static_j"`
	FleetJ             float64 `json:"fleet_j"`
}

type statsWork struct {
	Attributed energy.Counters `json:"attributed"`
	Physical   energy.Counters `json:"physical"`
}

type statsClient struct {
	AllowanceJ  float64 `json:"allowance_j"`
	CommittedJ  float64 `json:"committed_j"`
	SpentJ      float64 `json:"spent_j"`
	Rejected402 uint64  `json:"rejected_402"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errBody("method_not_allowed", "GET only", 0))
		return
	}
	s.mu.Lock()
	rep := s.loop.Report()
	resp := statsResponse{
		VirtualNowNS: int64(s.loop.Now()),
		Queued:       s.loop.Queued(),
		Running:      s.loop.Running(),
		Completed:    rep.Fleet.Completed,
		Rejected:     rep.Fleet.Rejected,
		Writes:       s.writes,
		Merges:       s.merges,
		PlanCache: statsCache{
			Hits:     s.textHits + s.sigHits,
			TextHits: s.textHits,
			SigHits:  s.sigHits,
			Misses:   s.misses,
			Entries:  len(s.sigs),
		},
		Energy: statsEnergy{
			AttributedDynamicJ: float64(rep.FleetDynamic + rep.SavedDynamic),
			FleetDynamicJ:      float64(rep.FleetDynamic),
			SavedDynamicJ:      float64(rep.SavedDynamic),
			StaticJ:            float64(rep.Fleet.Static),
			FleetJ:             float64(rep.FleetEnergy()),
		},
		Work:    statsWork{Attributed: rep.Attributed, Physical: rep.Physical},
		Clients: make(map[string]statsClient, len(s.clients)),
	}
	for key, b := range s.clients {
		resp.Clients[key] = statsClient{
			AllowanceJ:  float64(b.allowance),
			CommittedJ:  float64(b.committed),
			SpentJ:      float64(b.spent),
			Rejected402: b.rejected402,
		}
	}
	s.mu.Unlock()
	b, _ := json.Marshal(resp) // map keys marshal sorted: deterministic bytes
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}
