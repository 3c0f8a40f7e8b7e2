package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
)

// startDriver advances the virtual clock in the background so parked
// handlers reach their completions — the live-traffic stand-in for
// Replay's event loop.  Wall time is only a pacing device; nothing
// asserts on it.
func startDriver(sc *SimClock) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sc.Advance(sc.Now() + time.Second)
			time.Sleep(time.Millisecond)
		}
	}()
	return func() { close(done); wg.Wait() }
}

func getStats(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPSmokePlanCacheHit exercises the real net/http path end to
// end: healthz, a cold query (cache miss), the identical query again
// (cache hit, same schedule-invariant payload), and the /stats
// counters that witnessed it.
func TestHTTPSmokePlanCacheHit(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 4, BatchScans: true, Arbitrate: true}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	stop := startDriver(sc)
	defer stop()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	const q = `{"sql":"SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 9"}`
	post := func() (*http.Response, queryResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query: %d %s", resp.StatusCode, raw)
		}
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("bad response body %q: %v", raw, err)
		}
		return resp, qr
	}
	r1, q1 := post()
	if got := r1.Header.Get("X-Eimdb-Cache"); got != "miss" {
		t.Fatalf("first query X-Eimdb-Cache = %q, want miss", got)
	}
	r2, q2 := post()
	if got := r2.Header.Get("X-Eimdb-Cache"); got != "hit" {
		t.Fatalf("second identical query X-Eimdb-Cache = %q, want hit", got)
	}
	if q1.ID == q2.ID {
		t.Fatalf("both responses claim id %d", q1.ID)
	}
	q1.ID = 0
	q2.ID = 0
	if !reflect.DeepEqual(q1, q2) {
		t.Fatalf("identical queries returned different payloads:\n%+v\n%+v", q1, q2)
	}
	st := getStats(t, ts.URL)
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 1 || st.PlanCache.Entries != 1 {
		t.Fatalf("plan cache counters %+v, want 1 miss / 1 hit / 1 entry", st.PlanCache)
	}
	if st.Completed != 2 || st.Rejected != 0 {
		t.Fatalf("completed=%d rejected=%d, want 2/0", st.Completed, st.Rejected)
	}
}

// TestHTTPQueueOverflow429: with one core, queue depth one, and the
// virtual clock frozen, two parked queries fill the machine and the
// third distinct query is turned away 429 with a Retry-After header.
func TestHTTPQueueOverflow429(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 1, QueueDepth: 1, Arbitrate: true}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func(key int) (*http.Response, string) {
		body := fmt.Sprintf(`{"sql":"SELECT COUNT(*) FROM orders WHERE custkey = %d"}`, key)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil, ""
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(raw)
	}
	parked := make(chan int, 2)
	for i := 1; i <= 2; i++ {
		go func(key int) {
			resp, _ := post(key)
			if resp != nil {
				parked <- resp.StatusCode
			}
		}(i)
		for getStats(t, ts.URL).Running+getStats(t, ts.URL).Queued < i {
			time.Sleep(time.Millisecond)
		}
	}
	resp, body := post(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow query: %d %s, want 429", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	sc.Advance(time.Hour) // release the two parked queries
	for i := 0; i < 2; i++ {
		if code := <-parked; code != http.StatusOK {
			t.Fatalf("parked query finished with %d", code)
		}
	}
}

// TestHTTPClientBudget402: a client whose allowance cannot cover even
// one plan estimate is rejected 402-style synchronously, before any
// scheduling happens.
func TestHTTPClientBudget402(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true},
		map[string]energy.Joules{"bob": 1e-12})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM orders WHERE custkey = 1"}`))
	req.Header.Set("X-API-Key", "bob")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("exhausted client got %d %s, want 402", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "energy budget exhausted") {
		t.Fatalf("402 body %q missing diagnosis", raw)
	}
	st := getStats(t, ts.URL)
	if st.Clients["bob"].Rejected402 != 1 || st.Clients["bob"].CommittedJ != 0 {
		t.Fatalf("client book %+v, want rejected_402=1 committed_j=0", st.Clients["bob"])
	}
}
