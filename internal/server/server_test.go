package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/experiments/synth"
	"repro/internal/opt"
	"repro/internal/workload"
)

// testEngine builds an engine with a sealed orders table of n rows —
// the same deterministic dataset the core scheduler tests use.
func testEngine(t testing.TB, n int) *core.Engine {
	t.Helper()
	e := core.Open()
	o := workload.GenOrders(42, n, n/100+10, 1.1)
	tab, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "amount", Type: colstore.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Int64("id", o.OrderID...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Int64("custkey", o.CustKey...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Float64("amount", o.Amount...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal("orders"); err != nil {
		t.Fatal(err)
	}
	return e
}

func testServer(t testing.TB, sched core.SchedulerConfig, clients map[string]energy.Joules) (*Server, *SimClock) {
	t.Helper()
	sc := NewSimClock()
	s := New(testEngine(t, 1<<15), Config{Sched: sched, Objective: opt.MinEnergy, Clients: clients}, sc)
	return s, sc
}

// TestServeDeterminismAcrossBudgets is the PR's headline acceptance:
// a fixed seed + fixed arrival script replayed through the full serving
// pipeline yields byte-identical response bodies and attributed energy
// books across core budgets {1,2,8} × batching on/off.  Only the fleet
// schedule and physical energy may move.  Run under -race on the 1-CPU
// CI box this asserts invariance, never wall-clock behavior.
func TestServeDeterminismAcrossBudgets(t *testing.T) {
	script := synth.PointStorm(17, 32, 200_000, 1.3, 40)
	type arm struct {
		played     []Played
		attributed energy.Counters
		attrDynJ   energy.Joules
		cacheTotal uint64
	}
	run := func(budget int, batch bool) arm {
		s, _ := testServer(t, core.SchedulerConfig{Budget: budget, BatchScans: batch, Arbitrate: true}, nil)
		played := s.Replay(script)
		rep := s.loop.Report()
		return arm{
			played:     played,
			attributed: rep.Attributed,
			attrDynJ:   rep.FleetDynamic + rep.SavedDynamic,
			cacheTotal: s.textHits + s.sigHits + s.misses,
		}
	}
	base := run(1, false)
	for i, p := range base.played {
		if p.Status != http.StatusOK {
			t.Fatalf("baseline arrival %d: status %d body %s", i, p.Status, p.Body)
		}
	}
	if base.cacheTotal != uint64(len(script.Arrivals)) {
		t.Fatalf("cache lookups %d != arrivals %d", base.cacheTotal, len(script.Arrivals))
	}
	for _, budget := range []int{1, 2, 8} {
		for _, batch := range []bool{false, true} {
			got := run(budget, batch)
			for i := range base.played {
				if got.played[i] != base.played[i] {
					t.Fatalf("budget=%d batch=%v: arrival %d response diverged\n got: %+v\nwant: %+v",
						budget, batch, i, got.played[i], base.played[i])
				}
			}
			if got.attributed != base.attributed {
				t.Fatalf("budget=%d batch=%v: attributed counters diverged", budget, batch)
			}
			if got.attrDynJ != base.attrDynJ {
				t.Fatalf("budget=%d batch=%v: attributed dynamic energy diverged: %v vs %v",
					budget, batch, got.attrDynJ, base.attrDynJ)
			}
		}
	}
}

// TestReplayIsRepeatable: two replays of the same script on fresh
// servers are byte-identical — the whole front end is a deterministic
// function of (engine seed, script, config).
func TestReplayIsRepeatable(t *testing.T) {
	script := synth.PointStorm(23, 16, 300_000, 1.3, 30)
	cfg := core.SchedulerConfig{Budget: 2, BatchScans: true, Arbitrate: true}
	s1, _ := testServer(t, cfg, nil)
	s2, _ := testServer(t, cfg, nil)
	a, b := s1.Replay(script), s2.Replay(script)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d not repeatable:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestReplayPlanCacheSharesLookalikes: a hot-key storm repeats SQL
// texts, so the second occurrence of any text must hit the cache, and
// canonically equal spellings share one prepared plan via ShareSig.
func TestReplayPlanCacheSharesLookalikes(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 2, BatchScans: true, Arbitrate: true}, nil)
	script := &workload.Script{Arrivals: []workload.Arrival{
		{At: 0, SQL: "SELECT COUNT(*) FROM orders WHERE custkey = 7"},
		{At: time.Millisecond, SQL: "SELECT COUNT(*) FROM orders WHERE custkey = 7"},
		// Same canonical form, different spelling: sig hit, not text hit.
		{At: 2 * time.Millisecond, SQL: "SELECT  COUNT(*)  FROM orders WHERE custkey = 7"},
	}}
	for i, p := range s.Replay(script) {
		if p.Status != http.StatusOK {
			t.Fatalf("arrival %d: status %d body %s", i, p.Status, p.Body)
		}
	}
	if s.misses != 1 || s.textHits != 1 || s.sigHits != 1 {
		t.Fatalf("cache counters misses=%d textHits=%d sigHits=%d, want 1/1/1",
			s.misses, s.textHits, s.sigHits)
	}
	if len(s.sigs) != 1 {
		t.Fatalf("three spellings of one query filled %d plan entries", len(s.sigs))
	}
}

// TestPlanCacheSharedAcrossObjectives: a plan does not depend on the
// objective, so the same text under two objectives is one miss and one
// text hit on the same entry, and each ticket still carries the
// objective it asked for (its scheduler goal).
func TestPlanCacheSharedAcrossObjectives(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true}, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	const sqlText = "SELECT COUNT(*) FROM orders WHERE custkey = 7"
	for i, obj := range []opt.Objective{opt.MinTime, opt.MinEDP} {
		tk, hit, rerr := s.admitLocked(0, "", sqlText, obj.String())
		if rerr != nil {
			t.Fatalf("admit under %v: %+v", obj, rerr)
		}
		if hit != (i > 0) || tk.Objective != obj {
			t.Fatalf("admit under %v: hit=%v, ticket objective %v", obj, hit, tk.Objective)
		}
	}
	if s.misses != 1 || s.textHits != 1 || s.sigHits != 0 || len(s.texts) != 1 {
		t.Fatalf("cache counters misses=%d textHits=%d sigHits=%d over %d entries, want 1/1/0 over 1",
			s.misses, s.textHits, s.sigHits, len(s.texts))
	}
	s.loop.React()
	s.loop.RunToIdle()
}

// TestReplayClientBudget402 pins the per-client energy account: the
// plan estimate is charged at admission, so once the committed sum
// would exceed the allowance the request is rejected 402-style —
// deterministically, at every core budget, because estimates never
// depend on the schedule.
func TestReplayClientBudget402(t *testing.T) {
	const sqlText = "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 3"
	probe, _ := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true}, nil)
	entry, _, err := probe.lookupLocked(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	est := entry.info.Est.Energy

	script := synth.AssignClients(&workload.Script{Arrivals: []workload.Arrival{
		{At: 0, SQL: sqlText},
		{At: time.Millisecond, SQL: sqlText},
		{At: 2 * time.Millisecond, SQL: sqlText},
	}}, "alice")
	for _, budget := range []int{1, 8} {
		s, _ := testServer(t, core.SchedulerConfig{Budget: budget, Arbitrate: true},
			map[string]energy.Joules{"alice": 2 * est}) // room for two, not three
		out := s.Replay(script)
		for i := 0; i < 2; i++ {
			if out[i].Status != http.StatusOK {
				t.Fatalf("budget=%d arrival %d: status %d body %s", budget, i, out[i].Status, out[i].Body)
			}
		}
		if out[2].Status != http.StatusPaymentRequired {
			t.Fatalf("budget=%d: third query got %d, want 402: %s", budget, out[2].Status, out[2].Body)
		}
		book := s.clients["alice"]
		if book.committed != 2*est || book.rejected402 != 1 {
			t.Fatalf("budget=%d: book committed=%v rejected=%d, want %v/1",
				budget, book.committed, book.rejected402, 2*est)
		}
		if book.spent <= 0 {
			t.Fatalf("budget=%d: completed queries recorded no measured spend", budget)
		}
	}
}

// TestServeQueueFull429 pins backpressure: with one core and queue
// depth one, a third distinct query arriving while the first runs and
// the second waits is rejected 429 with Retry-After derived from the
// virtual-time backlog.
func TestServeQueueFull429(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 1, QueueDepth: 1, Arbitrate: true}, nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sqlText := range []string{
		"SELECT COUNT(*) FROM orders WHERE custkey = 1",
		"SELECT COUNT(*) FROM orders WHERE custkey = 2",
	} {
		tk, _, rerr := s.admitLocked(0, "", sqlText, "")
		if rerr != nil {
			t.Fatalf("admit %d: %+v", i, rerr)
		}
		s.loop.React()
		if settled(tk) {
			t.Fatalf("query %d settled at admission", i)
		}
	}
	wantRetry := retryAfterSeconds(s.loop.Backlog(), 1)
	_, _, rerr := s.admitLocked(0, "", "SELECT COUNT(*) FROM orders WHERE custkey = 3", "")
	if rerr == nil || rerr.status != http.StatusTooManyRequests {
		t.Fatalf("overflow arrival not rejected 429: %+v", rerr)
	}
	if rerr.retryAfter != wantRetry || rerr.retryAfter < 1 {
		t.Fatalf("Retry-After %d, want %d (>=1) from backlog %v", rerr.retryAfter, wantRetry, s.loop.Backlog())
	}
}

// TestServeErrorPaths covers the synchronous request failures a replayed
// backlog never exercises: malformed JSON, missing/unknown fields, unknown
// tables, bad methods, unknown API keys.
func TestServeErrorPaths(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true},
		map[string]energy.Joules{"alice": 1})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		apiKey string
		want   int
	}{
		{"malformed json", "POST", "/v1/query", `{"sql": "SELECT`, "", http.StatusBadRequest},
		{"missing sql", "POST", "/v1/query", `{}`, "", http.StatusBadRequest},
		{"unknown table", "POST", "/v1/query", `{"sql":"SELECT COUNT(*) FROM nosuch"}`, "", http.StatusBadRequest},
		{"parse error", "POST", "/v1/query", `{"sql":"SELEC COUNT(*) FROM orders"}`, "", http.StatusBadRequest},
		{"unknown objective", "POST", "/v1/query", `{"sql":"SELECT COUNT(*) FROM orders","objective":"min-carbon"}`, "", http.StatusBadRequest},
		{"get on query", "GET", "/v1/query", ``, "", http.StatusMethodNotAllowed},
		{"post on stats", "POST", "/v1/stats", ``, "", http.StatusMethodNotAllowed},
		{"unknown api key", "POST", "/v1/query", `{"sql":"SELECT COUNT(*) FROM orders"}`, "mallory", http.StatusUnauthorized},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		if c.apiKey != "" {
			req.Header.Set("X-API-Key", c.apiKey)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s: status %d, want %d (body %s)", c.name, rec.Code, c.want, rec.Body.String())
		}
		if c.want != http.StatusOK && !strings.Contains(rec.Body.String(), "error") {
			t.Fatalf("%s: error body missing message: %s", c.name, rec.Body.String())
		}
	}
}

// TestServeCancelMidQueryRevokesLease: dropping the request context of
// an in-flight query propagates to its exec lease — the query settles
// as exec.ErrCanceled with no relation, and no spend is recorded for the
// client.  The query was dispatched at admission, so the drop may find it
// before, inside or after Run (TestServeCancelInsideRun pins "inside").
func TestServeCancelMidQueryRevokesLease(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 1, Arbitrate: true},
		map[string]energy.Joules{"alice": 1e9})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM orders WHERE custkey = 5","client":"alice"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(handlerDone)
	}()
	for {
		s.mu.Lock()
		admitted := len(s.inflight) == 1
		s.mu.Unlock()
		if admitted {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-handlerDone
	s.mu.Lock()
	tk := s.loop.Ticket(0)
	s.mu.Unlock()
	if tk == nil || !tk.Lease.Canceled() {
		t.Fatal("request-context cancellation did not revoke the exec lease")
	}
	sc.Advance(time.Hour) // retire the abandoned group
	<-tk.Settled()        // at max(virtual finish, real finish)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !settled(tk) || !errors.Is(tk.Err, exec.ErrCanceled) {
		t.Fatalf("canceled ticket settled as %v, want exec.ErrCanceled", tk.Err)
	}
	if tk.Rel != nil {
		t.Fatal("canceled query produced a relation")
	}
	if book := s.clients["alice"]; book.spent != 0 {
		t.Fatalf("canceled query recorded spend %v", book.spent)
	}
	if rep := s.loop.Report(); rep.Fleet.Completed != 1 {
		t.Fatalf("abandoned group never retired: %+v", rep.Fleet)
	}
}

// settled reports, without blocking, whether tk's result has settled.
func settled(tk *core.Ticket) bool {
	select {
	case <-tk.Settled():
		return true
	default:
		return false
	}
}
