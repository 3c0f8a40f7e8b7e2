package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
)

// The tests here pin what execution-at-dispatch changed: a query runs
// off the server mutex while its virtual schedule elapses, so requests,
// /v1/stats and other executions proceed while one is inside Run; a
// panic in an operator fails one request; one clock wake is armed per
// finish event.  They plant test-local nodes in the plan cache, which
// reach the loop through OfferPlanned like any cached plan.

// gateNode wraps a real plan: Run announces itself with its Ctx, then
// blocks until released — the test holds a query inside Run for as long
// as it likes.
type gateNode struct {
	exec.Node
	entered chan *exec.Ctx
	release chan struct{}
}

func newGate(n exec.Node) *gateNode {
	// entered is buffered for the one run each test expects, so Run never
	// blocks on a test that has stopped listening.
	return &gateNode{Node: n, entered: make(chan *exec.Ctx, 1), release: make(chan struct{})}
}

func (g *gateNode) Run(ctx *exec.Ctx) (*exec.Relation, error) {
	g.entered <- ctx
	<-g.release
	return g.Node.Run(ctx)
}

// panicNode is an operator with a bug.
type panicNode struct{ exec.Node }

func (panicNode) Run(*exec.Ctx) (*exec.Relation, error) { panic("operator bug") }

// plant plans and caches text, and replaces the cached node with
// wrap(node).
func plant(t *testing.T, s *Server, text string, wrap func(exec.Node) exec.Node) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, _, err := s.lookupLocked(text)
	if err != nil {
		t.Fatal(err)
	}
	e.node = wrap(e.node)
}

// post issues one request through ServeHTTP on a goroutine of its own and
// delivers the recorder when the handler returns.
func post(s *Server, ctx context.Context, path, body string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx))
		done <- rec
	}()
	return done
}

func queryBody(sqlText string) string { return fmt.Sprintf(`{"sql":%q}`, sqlText) }

// stats reads /v1/stats through the handler.
func stats(t *testing.T, s *Server) statsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad /v1/stats body %q: %v", rec.Body.String(), err)
	}
	return st
}

// awaitInMachine polls /v1/stats until n queries are queued or running.
func awaitInMachine(t *testing.T, s *Server, n int) {
	t.Helper()
	for st := stats(t, s); st.Running+st.Queued < n; st = stats(t, s) {
		time.Sleep(time.Millisecond)
	}
}

const (
	gatedSQL = "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 5"
	otherSQL = "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 6"
)

// TestServeOverlapsExecutions: while one query sits inside Run, a second
// request is admitted, executed and answered, and /v1/stats answers —
// nothing waits for the first execution.  Releasing the gate before or
// after the first ticket's virtual finish yields the same body: when the
// real run ends relative to the modeled schedule decides only when the
// answer leaves.
func TestServeOverlapsExecutions(t *testing.T) {
	gated := func(releaseFirst bool) string {
		s, sc := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true}, nil)
		var gate *gateNode
		plant(t, s, gatedSQL, func(n exec.Node) exec.Node { gate = newGate(n); return gate })
		first := post(s, context.Background(), "/v1/query", queryBody(gatedSQL))
		<-gate.entered // dispatched at admission, and now inside Run
		// The run starts while the handler still holds s.mu, before it
		// arms its wake; /v1/stats takes s.mu, so once it answers the wake
		// is armed and an Advance can no longer slip in ahead of it.
		stats(t, s)

		if releaseFirst {
			close(gate.release)
			sc.Advance(time.Hour)
			return (<-first).Body.String()
		}
		second := post(s, context.Background(), "/v1/query", queryBody(otherSQL))
		awaitInMachine(t, s, 2) // /v1/stats answers with the first still inside Run
		sc.Advance(time.Hour)   // both virtual schedules end; only the second's run has
		if rec := <-second; rec.Code != http.StatusOK {
			t.Fatalf("second query: %d %s", rec.Code, rec.Body.String())
		}
		select {
		case rec := <-first:
			t.Fatalf("gated query answered before its execution finished: %d %s", rec.Code, rec.Body.String())
		default:
		}
		if st := stats(t, s); st.Running != 0 || st.Completed != 2 {
			t.Fatalf("virtual machine after the advance: running=%d completed=%d, want 0/2", st.Running, st.Completed)
		}
		close(gate.release)
		rec := <-first
		if rec.Code != http.StatusOK {
			t.Fatalf("gated query: %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	late, early := gated(false), gated(true)
	if late != early {
		t.Fatalf("body depends on when the run finished:\n real finish after virtual: %s\nreal finish before virtual: %s", late, early)
	}
}

// TestServePanicIsOneRequestsFailure: a panic inside an operator settles
// that ticket as a 500 with the internal envelope; the data latch and the
// mutex are free afterwards, so writes and queries keep being served.
func TestServePanicIsOneRequestsFailure(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true}, nil)
	stop := startDriver(sc)
	defer stop()
	plant(t, s, gatedSQL, func(n exec.Node) exec.Node { return panicNode{n} })

	rec := <-post(s, context.Background(), "/v1/query", queryBody(gatedSQL))
	var env errEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("panic response %d %q is not the envelope: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != "internal" ||
		!strings.Contains(env.Error.Message, "operator bug") {
		t.Fatalf("panic response %d %+v, want 500 internal naming the panic", rec.Code, env.Error)
	}
	// A write needs the latch exclusively: it would hang here had the
	// panicking execution kept its shared hold.
	if rec := <-post(s, context.Background(), "/v1/write", queryBody("INSERT INTO orders VALUES (930001, -3, 1.5)")); rec.Code != http.StatusOK {
		t.Fatalf("write after the panic: %d %s", rec.Code, rec.Body.String())
	}
	if rec := <-post(s, context.Background(), "/v1/query", queryBody("SELECT COUNT(*) FROM orders WHERE custkey = -3")); rec.Code != http.StatusOK {
		t.Fatalf("query after the panic: %d %s", rec.Code, rec.Body.String())
	}
}

// TestServeCancelInsideRun is TestServeCancelMidQueryRevokesLease with
// the runner known to be inside Run when the context drops: the revoked
// lease stops the operators, and the ticket still settles as
// exec.ErrCanceled with no relation and no spend.
func TestServeCancelInsideRun(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 1, Arbitrate: true},
		map[string]energy.Joules{"alice": 1e9})
	var gate *gateNode
	plant(t, s, gatedSQL, func(n exec.Node) exec.Node { gate = newGate(n); return gate })
	ctx, cancel := context.WithCancel(context.Background())
	handler := post(s, ctx, "/v1/query", fmt.Sprintf(`{"sql":%q,"client":"alice"}`, gatedSQL))
	lease := (<-gate.entered).Lease
	cancel()
	<-handler
	if !lease.Canceled() {
		t.Fatal("request-context cancellation did not revoke the running query's lease")
	}
	s.mu.Lock()
	tk := s.loop.Ticket(0)
	s.mu.Unlock()
	close(gate.release)
	sc.Advance(time.Hour)
	<-tk.Settled()
	if !errors.Is(tk.Err, exec.ErrCanceled) || tk.Rel != nil {
		t.Fatalf("canceled ticket settled as err=%v rel=%v, want exec.ErrCanceled and no relation", tk.Err, tk.Rel)
	}
	if st := stats(t, s); st.Clients["alice"].SpentJ != 0 || st.Completed != 1 {
		t.Fatalf("after the cancel: spent %v J, completed %d; want 0 and 1", st.Clients["alice"].SpentJ, st.Completed)
	}
}

// countingClock counts the wakes the server arms.
type countingClock struct {
	*SimClock
	schedules atomic.Int64
}

func (c *countingClock) Schedule(at time.Duration, wake func()) {
	c.schedules.Add(1)
	c.SimClock.Schedule(at, wake)
}

// TestServeArmsOneWakePerFinish: requests that re-derive a finish some
// earlier request already armed the clock for schedule nothing; each
// retirement arms the next finish once.
func TestServeArmsOneWakePerFinish(t *testing.T) {
	const n = 5
	clock := &countingClock{SimClock: NewSimClock()}
	s := New(testEngine(t, 1<<12), Config{
		Sched:     core.SchedulerConfig{Budget: 1, Arbitrate: true},
		Objective: opt.MinEnergy,
	}, clock)
	var replies []<-chan *httptest.ResponseRecorder
	for i := 0; i < n; i++ {
		replies = append(replies, post(s, context.Background(), "/v1/query",
			queryBody(fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE custkey = %d", i))))
		awaitInMachine(t, s, i+1)
	}
	// One core: the first query runs, four wait, and the next finish has
	// been the first query's all along.
	if got := clock.schedules.Load(); got != 1 {
		t.Fatalf("%d requests behind one finish armed %d wakes, want 1", n, got)
	}
	clock.Advance(time.Hour)
	for i, r := range replies {
		if rec := <-r; rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := clock.schedules.Load(); got != n {
		t.Fatalf("%d finish events armed %d wakes, want %d", n, got, n)
	}
}

// TestServeSoakReadsWritesMerges runs real goroutines against each
// other: readers all issue ONE statement (no batching, so its single
// cached plan node runs concurrently with itself), a writer walks that
// key through INSERT/UPDATE/DELETE, a second writer and the auto-merges
// it triggers churn the same table.  The checked writer's acknowledged
// history is a serial order of states; every read must equal one of
// them — no older than the last write acknowledged before the read was
// sent, no newer than the last write sent before its answer arrived —
// which is a serial evaluation at the read's snapshot.  The final state
// must survive (no lost update), and the test returning at all is the
// deadlock check: handlers take s.mu then the data latch (writes,
// merges), executions hold the latch alone, nothing takes them in the
// reverse order.
func TestServeSoakReadsWritesMerges(t *testing.T) {
	const readers, writes = 6, 40
	sc := NewSimClock()
	s := New(testEngine(t, 1<<13), Config{
		Sched:          core.SchedulerConfig{Budget: 4, Arbitrate: true},
		Objective:      opt.MinEnergy,
		MergeDeltaRows: 4,
	}, sc)
	stop := startDriver(sc)
	defer stop()

	const readSQL = "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = -5"
	type state struct {
		count int
		sum   float64
	}
	// history[i] is the checked key's state after i acknowledged writes.
	// The writer fills entry i before it stores started = i, so a reader
	// that loaded started >= i may read it.
	history := make([]state, writes+1)
	var started, acked atomic.Int64
	write := func(sqlText string) error {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/write", strings.NewReader(queryBody(sqlText))))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: %d %s", sqlText, rec.Code, rec.Body.String())
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	writersDone := make(chan struct{})
	wg.Add(2)
	go func() { // the checked writer
		defer wg.Done()
		defer close(writersDone)
		var cur state // the running serial model: every amount is a small integer
		for i := 1; i <= writes; i++ {
			var sqlText string
			switch id := 940000 + i; {
			case i%5 == 0: // delete the row inserted two steps ago (rewritten one step ago)
				sqlText = fmt.Sprintf("DELETE FROM orders WHERE id = %d", id-2)
				cur.count--
				cur.sum -= float64(7000 + i - 1)
			case i%5 == 4: // rewrite the row inserted one step ago
				sqlText = fmt.Sprintf("UPDATE orders SET amount = %d.0 WHERE id = %d", 7000+i, id-1)
				cur.sum += float64(7000+i) - float64(i-1)
			default:
				sqlText = fmt.Sprintf("INSERT INTO orders VALUES (%d, -5, %d.0)", id, i)
				cur.count++
				cur.sum += float64(i)
			}
			history[i] = cur
			started.Store(int64(i))
			if err := write(sqlText); err != nil {
				errs <- err
				return
			}
			acked.Store(int64(i))
		}
	}()
	go func() { // churn: another key of the same table, more deltas and merges
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := write(fmt.Sprintf("INSERT INTO orders VALUES (%d, -6, 1.0)", 950000+i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := false; !done; {
				select {
				case <-writersDone:
					done = true // one last read after the final acknowledgement
				default:
				}
				lo := acked.Load()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(queryBody(readSQL))))
				hi := started.Load()
				var qr queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); rec.Code != http.StatusOK || err != nil {
					errs <- fmt.Errorf("read: %d %s (%v)", rec.Code, rec.Body.String(), err)
					return
				}
				var got state // an aggregate over no rows answers with no row
				if len(qr.Rows) > 0 {
					got = state{count: int(qr.Rows[0][0].(float64)), sum: qr.Rows[0][1].(float64)}
				}
				ok := false
				for _, want := range history[lo : hi+1] {
					ok = ok || got == want
				}
				if !ok {
					errs <- fmt.Errorf("read %+v matches no serial state between write %d and write %d: %+v",
						got, lo, hi, history[lo:hi+1])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	st := stats(t, s)
	if st.Writes != 2*writes || st.Merges == 0 {
		t.Fatalf("writes=%d merges=%d, want %d writes and some merges", st.Writes, st.Merges, 2*writes)
	}
	res, err := s.eng.Query(readSQL)
	if err != nil {
		t.Fatal(err)
	}
	final := history[writes]
	if got := (state{int(res.Rel.Cols[0].I[0]), res.Rel.Cols[1].F[0]}); got != final {
		t.Fatalf("final state %+v, want %+v: an acknowledged write was lost", got, final)
	}
}
