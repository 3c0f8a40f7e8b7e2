package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

// tooLargeNode is a join asked for a near cross product.
type tooLargeNode struct{ exec.Node }

func (tooLargeNode) Run(*exec.Ctx) (*exec.Relation, error) { return nil, exec.ErrResultTooLarge }

// TestErrorEnvelopeAllRoutes is the API-redesign acceptance for the
// error contract: every failing status, on every route, answers with
// the one envelope shape {"error":{"code","message","retry_after_s?"}}.
func TestErrorEnvelopeAllRoutes(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true},
		map[string]energy.Joules{"bob": 1e-12})
	ts := httptest.NewServer(s)
	defer ts.Close()
	// Only the 422 row gets as far as executing, so only it needs the clock
	// driven: its plan is a join that hits exec's pair cap (reaching the real
	// cap takes a 2^24-pair join; exec's TestJoinResultCap does that with the
	// cap lowered).
	defer startDriver(sc)()
	plant(t, s, gatedSQL, func(n exec.Node) exec.Node { return tooLargeNode{n} })
	// A plain row selection returns every row of the table: lower the
	// response row cap under it.
	defer func(limit int) { maxResponseRows = limit }(maxResponseRows)
	maxResponseRows = 100

	// One byte past the cap once the JSON framing is counted.
	oversized := `{"sql":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	cases := []struct {
		name     string
		method   string
		path     string // under /v1
		body     string
		apiKey   string
		want     int
		wantCode string
	}{
		{"malformed json", "POST", "/query", `{"sql": "SELECT`, "", 400, "bad_request"},
		{"missing sql", "POST", "/query", `{}`, "", 400, "bad_request"},
		{"parse error", "POST", "/query", `{"sql":"SELEC 1"}`, "", 400, "bad_request"},
		{"unknown table", "POST", "/query", `{"sql":"SELECT COUNT(*) FROM nosuch"}`, "", 400, "bad_request"},
		{"unknown objective", "POST", "/query", `{"sql":"SELECT COUNT(*) FROM orders","objective":"min-carbon"}`, "", 400, "bad_request"},
		{"unknown api key", "POST", "/query", `{"sql":"SELECT COUNT(*) FROM orders"}`, "mallory", 401, "unknown_api_key"},
		{"budget exhausted", "POST", "/query", `{"sql":"SELECT COUNT(*) FROM orders"}`, "bob", 402, "energy_budget_exhausted"},
		{"get on query", "GET", "/query", ``, "", 405, "method_not_allowed"},
		{"post on stats", "POST", "/stats", ``, "", 405, "method_not_allowed"},
		{"malformed write json", "POST", "/write", `{`, "", 400, "bad_request"},
		{"missing write sql", "POST", "/write", `{}`, "", 400, "bad_request"},
		{"write parse error", "POST", "/write", `{"sql":"INSERT INTO"}`, "", 400, "bad_request"},
		{"select on write", "POST", "/write", `{"sql":"SELECT COUNT(*) FROM orders"}`, "", 400, "bad_request"},
		{"write unknown table", "POST", "/write", `{"sql":"INSERT INTO nosuch VALUES (1)"}`, "", 400, "bad_request"},
		{"write bad arity", "POST", "/write", `{"sql":"INSERT INTO orders VALUES (1)"}`, "", 400, "bad_request"},
		{"write type mismatch", "POST", "/write", `{"sql":"UPDATE orders SET id = 'x'"}`, "", 400, "bad_request"},
		{"write unknown key", "POST", "/write", `{"sql":"DELETE FROM orders"}`, "mallory", 401, "unknown_api_key"},
		{"write budget exhausted", "POST", "/write", `{"sql":"INSERT INTO orders VALUES (1, 2, 3.0)"}`, "bob", 402, "energy_budget_exhausted"},
		{"get on write", "GET", "/write", ``, "", 405, "method_not_allowed"},
		{"oversized query body", "POST", "/query", oversized, "", 413, "body_too_large"},
		{"join result too large", "POST", "/query", queryBody(gatedSQL), "", 422, "result_too_large"},
		{"result over the response row cap", "POST", "/query", queryBody("SELECT id, custkey, amount FROM orders"), "", 422, "result_too_large"},
		{"oversized write body", "POST", "/write", oversized, "", 413, "body_too_large"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+"/v1"+c.path, strings.NewReader(c.body))
		if c.apiKey != "" {
			req.Header.Set("X-API-Key", c.apiKey)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%s /v1%s: status %d, want %d (body %s)", c.name, c.path, resp.StatusCode, c.want, raw)
		}
		var env errEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s /v1%s: body %q is not the error envelope: %v", c.name, c.path, raw, err)
		}
		if env.Error.Code != c.wantCode {
			t.Fatalf("%s /v1%s: code %q, want %q", c.name, c.path, env.Error.Code, c.wantCode)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s /v1%s: empty error message", c.name, c.path)
		}
		if env.Error.RetryAfterS != 0 {
			t.Fatalf("%s /v1%s: unexpected retry_after_s %d", c.name, c.path, env.Error.RetryAfterS)
		}
	}

	// The refused join cost that request alone: its ticket settled (nothing
	// is left in the machine, so its lease is back) and the server answers on.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(queryBody(otherSQL)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := stats(t, s); resp.StatusCode != http.StatusOK || st.Running+st.Queued != 0 {
		t.Fatalf("after the refused join: query status %d, %d running, %d queued", resp.StatusCode, st.Running, st.Queued)
	}
}

// TestResponseByteCap: a relation's size no longer bounds its rendered
// body — a string column holds 8-byte codes — so the renderer caps the
// body's bytes as well as its rows: past maxResponseBytes it answers the
// 422 result_too_large envelope, at the cap the very body it renders
// uncapped.
func TestResponseByteCap(t *testing.T) {
	long := strings.Repeat("w", 1000)
	rel := &exec.Relation{N: 50, Cols: []exec.Col{{Name: "s", Type: colstore.String, Dict: []string{long}, I: make([]int64, 50)}}}
	tk := &core.Ticket{}
	tk.Rel = rel
	status, full := renderTicket(tk)
	if status != http.StatusOK || len(full) < 50*len(long) {
		t.Fatalf("uncapped render: status %d, %d bytes", status, len(full))
	}
	defer func(limit int) { maxResponseBytes = limit }(maxResponseBytes)
	maxResponseBytes = len(full)
	if status, body := renderTicket(tk); status != http.StatusOK || string(body) != string(full) {
		t.Fatalf("at the cap: status %d, body changed", status)
	}
	maxResponseBytes = 10 * len(long)
	status, body := renderTicket(tk)
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || status != http.StatusUnprocessableEntity || env.Error.Code != "result_too_large" {
		t.Fatalf("over the byte cap: status %d body %s", status, body)
	}
}

// TestQueueFull429Envelope pins the 429's envelope: code queue_full and
// a retry_after_s mirroring the Retry-After header.
func TestQueueFull429Envelope(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 1, QueueDepth: 1, Arbitrate: true}, nil)
	script := &workload.Script{Arrivals: []workload.Arrival{
		{At: 0, SQL: "SELECT COUNT(*) FROM orders WHERE custkey = 1"},
		{At: 0, SQL: "SELECT COUNT(*) FROM orders WHERE custkey = 2"},
		{At: 0, SQL: "SELECT COUNT(*) FROM orders WHERE custkey = 3"},
	}}
	out := s.Replay(script)
	if out[2].Status != http.StatusTooManyRequests {
		t.Fatalf("overflow arrival got %d: %s", out[2].Status, out[2].Body)
	}
	var env errEnvelope
	if err := json.Unmarshal([]byte(out[2].Body), &env); err != nil {
		t.Fatalf("429 body %q is not the envelope: %v", out[2].Body, err)
	}
	if env.Error.Code != "queue_full" || env.Error.RetryAfterS < 1 || env.Error.RetryAfterS != out[2].RetryAfter {
		t.Fatalf("429 envelope %+v, want queue_full with retry_after_s=%d", env.Error, out[2].RetryAfter)
	}
}

// TestUnversionedPathsAreGone: the RFC 8594 deprecation window has
// closed — the bare paths 404 and only /v1 answers.
func TestUnversionedPathsAreGone(t *testing.T) {
	s, _ := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true}, nil)
	for _, path := range []string{"/healthz", "/stats", "/query", "/write"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, rec.Code)
		}
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1"+path, nil))
		if rec.Code == http.StatusNotFound {
			t.Fatalf("GET /v1%s: 404 — the versioned route vanished too", path)
		}
	}
}

// TestWriteEndToEnd drives INSERT/UPDATE/DELETE through the real HTTP
// path and reads the writes back through /v1/query: the delta is
// visible to queries immediately, matched/applied counts are exact, and
// /v1/stats witnesses the writes.
func TestWriteEndToEnd(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 2, Arbitrate: true}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	stop := startDriver(sc)
	defer stop()

	postWrite := func(sqlText string) (writeResponse, *http.Response) {
		t.Helper()
		body := fmt.Sprintf(`{"sql":%q}`, sqlText)
		resp, err := http.Post(ts.URL+"/v1/write", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/write %q: %d %s", sqlText, resp.StatusCode, raw)
		}
		var wr writeResponse
		if err := json.Unmarshal(raw, &wr); err != nil {
			t.Fatalf("bad write body %q: %v", raw, err)
		}
		return wr, resp
	}
	count := func(pred string) int {
		t.Helper()
		body := fmt.Sprintf(`{"sql":"SELECT COUNT(*) FROM orders WHERE %s"}`, pred)
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: %d %s", pred, resp.StatusCode, raw)
		}
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		return int(qr.Rows[0][0].(float64)) // JSON numbers decode float64
	}

	// custkey -77 is outside the generated domain: our rows only.
	wr, resp := postWrite("INSERT INTO orders (id, custkey, amount) VALUES (900001, -77, 10.0), (900002, -77, 20.0), (900003, -77, 30.0)")
	if wr.Kind != "INSERT" || wr.Applied != 3 || wr.TS <= 0 {
		t.Fatalf("insert response %+v", wr)
	}
	if resp.Header.Get("X-Eimdb-Latency") == "" || resp.Header.Get("X-Eimdb-Flushed") == "" {
		t.Fatal("write response missing schedule-dependent headers")
	}
	if got := count("custkey = -77"); got != 3 {
		t.Fatalf("COUNT after insert = %d, want 3", got)
	}

	wr, _ = postWrite("UPDATE orders SET amount = 99.0 WHERE custkey = -77 AND amount < 25.0")
	if wr.Kind != "UPDATE" || wr.Matched != 2 || wr.Applied != 2 {
		t.Fatalf("update response %+v", wr)
	}
	if got := count("custkey = -77 AND amount = 99.0"); got != 2 {
		t.Fatalf("COUNT after update = %d, want 2", got)
	}

	wr, _ = postWrite("DELETE FROM orders WHERE custkey = -77 AND amount = 30.0")
	if wr.Kind != "DELETE" || wr.Matched != 1 {
		t.Fatalf("delete response %+v", wr)
	}
	if got := count("custkey = -77"); got != 2 {
		t.Fatalf("COUNT after delete = %d, want 2", got)
	}

	st := getStats(t, ts.URL)
	if st.Writes != 3 {
		t.Fatalf("stats writes = %d, want 3", st.Writes)
	}
}

// TestAutoMergeBackground: once a table's delta passes MergeDeltaRows,
// the server offers a background merge-as-a-query; it drains with the
// loop, re-seals the delta, and queries keep answering exactly through
// the transition.
func TestAutoMergeBackground(t *testing.T) {
	sc := NewSimClock()
	eng := testEngine(t, 1<<12)
	s := New(eng, Config{
		Sched:          core.SchedulerConfig{Budget: 2, Arbitrate: true},
		MergeDeltaRows: 4,
	}, sc)

	arrivals := make([]workload.Arrival, 0, 8)
	for i := 0; i < 6; i++ {
		arrivals = append(arrivals, workload.Arrival{
			At:  time.Duration(i) * time.Millisecond,
			SQL: fmt.Sprintf("INSERT INTO orders VALUES (%d, -9, %d.5)", 910000+i, i),
		})
	}
	arrivals = append(arrivals, workload.Arrival{
		At: 10 * time.Millisecond, SQL: "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = -9"})
	out := s.Replay(&workload.Script{Arrivals: arrivals})
	for i, p := range out {
		if p.Status != http.StatusOK {
			t.Fatalf("arrival %d: status %d body %s", i, p.Status, p.Body)
		}
	}
	var qr queryResponse
	if err := json.Unmarshal([]byte(out[6].Body), &qr); err != nil {
		t.Fatal(err)
	}
	if int(qr.Rows[0][0].(float64)) != 6 {
		t.Fatalf("post-merge COUNT = %v, want 6", qr.Rows[0][0])
	}
	if s.merges < 1 {
		t.Fatal("delta crossed the threshold but no merge completed")
	}
	if len(s.merging) != 0 {
		t.Fatalf("merge bookkeeping leaked: %v", s.merging)
	}
	tab, err := eng.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if tab.DeltaRows() >= 6 {
		t.Fatalf("delta was never re-sealed: %d delta rows", tab.DeltaRows())
	}
}

// TestCachedPointPlanRepricedByInvalidation: a cached plan's estimate
// is frozen against the layout it was planned on, and every write and
// merge drops it, so a point read is re-priced as its windows change.
// The main is one full segment whose synopsis holds the hottest key.
// New rows of that key stream from the delta until the merge seals them
// into a segment whose synopsis folds the key too (the estimate falls);
// a DELETE of one of the key's rows in the main tombstones that segment,
// which then streams (the estimate rises).
func TestCachedPointPlanRepricedByInvalidation(t *testing.T) {
	const n, rows = 1 << 16, 100
	o := workload.GenOrders(42, n, n/100+10, 1.1) // testEngine's orders
	counts := map[int64]int{}
	hot := o.CustKey[0]
	for _, k := range o.CustKey {
		if counts[k]++; counts[k] > counts[hot] {
			hot = k
		}
	}
	victim := o.OrderID[slices.Index(o.CustKey, hot)]
	s := New(testEngine(t, n), Config{
		Sched:          core.SchedulerConfig{Budget: 2, Arbitrate: true},
		MergeDeltaRows: rows,
	}, NewSimClock())
	read := fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = %d", hot)
	at := time.Duration(0)
	replay := func(sqls ...string) {
		t.Helper()
		var arrivals []workload.Arrival
		for _, q := range sqls {
			at += time.Millisecond
			arrivals = append(arrivals, workload.Arrival{At: at, SQL: q})
		}
		for i, p := range s.Replay(&workload.Script{Arrivals: arrivals}) {
			if p.Status != http.StatusOK {
				t.Fatalf("%s: status %d body %s", sqls[i], p.Status, p.Body)
			}
		}
	}
	estimate := func() energy.Joules {
		t.Helper()
		replay(read) // plans and caches it
		s.mu.Lock()
		defer s.mu.Unlock()
		e, hit, err := s.lookupLocked(read)
		if err != nil || !hit {
			t.Fatalf("cached plan: hit %v, %v", hit, err)
		}
		return e.info.Est.Energy
	}
	for i := 0; i < rows-1; i++ {
		replay(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.5)", 910000+i, hot, i))
	}
	streamed := estimate()
	replay(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 0.5)", 910000+rows, hot))
	if s.merges != 1 {
		t.Fatalf("%d merges after %d inserts, want 1", s.merges, rows)
	}
	folded := estimate()
	if folded >= streamed {
		t.Fatalf("the merge sealed key %d's new rows into a synopsis, yet its estimate went %v -> %v", hot, streamed, folded)
	}
	replay(fmt.Sprintf("DELETE FROM orders WHERE id = %d", victim))
	if tombstoned := estimate(); tombstoned <= folded {
		t.Fatalf("a DELETE tombstoned key %d's main segment, yet its estimate went %v -> %v", hot, folded, tombstoned)
	}
}

// TestAutoMergeAnyRegisteredTable: merge-as-a-query resolves the table
// through the one registry, so a registered table auto-merges behind the
// server once its delta crosses the threshold, its delta is re-sealed,
// and reads answer byte-identically with and without the merges.
func TestAutoMergeAnyRegisteredTable(t *testing.T) {
	script := &workload.Script{}
	for i := 0; i < 12; i++ {
		script.Arrivals = append(script.Arrivals, workload.Arrival{
			At:  time.Duration(i) * time.Millisecond,
			SQL: fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d.5)", 920000+i, i*7, i),
		})
	}
	for i, q := range []string{
		"SELECT COUNT(*), SUM(amount) FROM orders WHERE id >= 920000",
		"SELECT id, custkey, amount FROM orders WHERE id >= 920000",
	} {
		script.Arrivals = append(script.Arrivals, workload.Arrival{At: time.Duration(20+i) * time.Millisecond, SQL: q})
	}
	run := func(mergeDeltaRows int) ([]Played, *Server, *core.Engine) {
		eng := testEngine(t, 1<<12)
		s := New(eng, Config{
			Sched:          core.SchedulerConfig{Budget: 2, Arbitrate: true},
			MergeDeltaRows: mergeDeltaRows,
		}, NewSimClock())
		out := s.Replay(script)
		for i, p := range out {
			if p.Status != http.StatusOK {
				t.Fatalf("MergeDeltaRows=%d arrival %d: status %d body %s", mergeDeltaRows, i, p.Status, p.Body)
			}
		}
		return out, s, eng
	}
	unmerged, s0, _ := run(0)
	merged, s, eng := run(4)
	if s0.merges != 0 || s.merges < 1 {
		t.Fatalf("merges: %d without a threshold, %d with one", s0.merges, s.merges)
	}
	if len(s.merging) != 0 {
		t.Fatalf("merge bookkeeping leaked: %v", s.merging)
	}
	// The relation is byte-identical; ids and work legitimately move (a
	// merged layout streams different bytes).
	rows := func(p Played) string {
		var qr queryResponse
		if err := json.Unmarshal([]byte(p.Body), &qr); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal([]any{qr.Columns, qr.Rows})
		return string(b)
	}
	for i := 12; i < len(merged); i++ {
		if got, want := rows(merged[i]), rows(unmerged[i]); got != want {
			t.Fatalf("read %d differs across the merges:\n%s\nvs\n%s", i, got, want)
		}
	}
	st, err := eng.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaRows() >= 12 {
		t.Fatalf("delta was never re-sealed: %d delta rows", st.DeltaRows())
	}

	// An explicit merge ticket on the same table settles clean and leaves
	// its delta empty.
	loop := eng.NewLoop(core.SchedulerConfig{Budget: 1, Arbitrate: true})
	tk := loop.OfferMerge(0, "orders")
	loop.React()
	loop.RunToIdle()
	if tk.Rejected || tk.Err != nil {
		t.Fatalf("OfferMerge: rejected=%v err=%v", tk.Rejected, tk.Err)
	}
	if st.DeltaRows() != 0 {
		t.Fatalf("explicit merge left %d delta rows", st.DeltaRows())
	}
}

// TestMixedScriptReplayIsRepeatable: a script interleaving writes,
// reads, and auto-merges replays byte-identically on a fresh server —
// the write path keeps the deterministic-replay contract.
func TestMixedScriptReplayIsRepeatable(t *testing.T) {
	script := &workload.Script{}
	reads := synth.PointStorm(23, 12, 300_000, 1.3, 30)
	for i, a := range reads.Arrivals {
		script.Arrivals = append(script.Arrivals, a)
		if i%3 == 0 {
			script.Arrivals = append(script.Arrivals, workload.Arrival{
				At:  a.At + time.Microsecond,
				SQL: fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 1.5)", 920000+i, i%7),
			})
		}
	}
	mk := func() *Server {
		sc := NewSimClock()
		return New(testEngine(t, 1<<12), Config{
			Sched:          core.SchedulerConfig{Budget: 2, BatchScans: true, Arbitrate: true},
			MergeDeltaRows: 2,
		}, sc)
	}
	a, b := mk().Replay(script), mk().Replay(script)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d not repeatable:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
