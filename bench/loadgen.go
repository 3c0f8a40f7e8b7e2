package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is what the load generator keeps per request.  Times are
// offsets from the start of the timed run.
type opRecord struct {
	stmt  int // read statement index; -1 for a write
	write *writeSpec
	// due is when the request was meant to go out: the arrival time in
	// an open loop, the send time in a closed loop.  Latency is end-due.
	due, sent, end time.Duration
	ok             bool
	status         int
	joules         float64
	respBytes      int
	walBytes       uint64 // writes: WAL bytes the statement flushed
	ts             int64  // writes: commit timestamp

	// Filled in only by a traced run, from the X-Eimdb-* headers.
	virtWait    time.Duration
	dop, group  int
	shared, hit bool
}

// runner drives one workload against one fixture and checks every
// response against the oracle.
type runner struct {
	fx     *fixture
	def    *workloadDef
	orc    *oracle
	seed   uint64
	traced bool

	bodies [][]byte // request body per read statement
	// want holds the oracle's answer per read statement when the
	// workload has no writes (fixedAnswers); with writes it is nil and the
	// oracle is consulted per read.
	want []map[string]agg
	// verified caches, per statement of a read-only workload, the "rows"
	// bytes that already passed the oracle, so a byte-identical repeat
	// costs the client a comparison rather than a decode of ~10K groups
	// on cores it shares with the server.
	verified []atomic.Pointer[[]byte]

	// sweeping switches the check of a read, in a workload with writes,
	// from the oracle's ledger to its row-at-a-time evaluation.
	sweeping bool

	failMu   sync.Mutex
	failures int
}

func sqlBody(text string) []byte {
	b, _ := json.Marshal(struct {
		SQL string `json:"sql"`
	}{text}) // a struct of one string cannot fail to marshal
	return b
}

// fixedAnswers evaluates every read statement of a workload without
// writes once, up front; the answers never change, so every fixture of the
// run is checked against the same ones.  With writes it returns nil.
func fixedAnswers(def *workloadDef, orc *oracle) []map[string]agg {
	if def.mergeDeltaRows > 0 {
		return nil
	}
	want := make([]map[string]agg, len(def.stmts))
	for i, q := range def.stmts {
		want[i] = orc.eval(q)
	}
	return want
}

func newRunner(fx *fixture, def *workloadDef, orc *oracle, want []map[string]agg, seed uint64, traced bool) *runner {
	r := &runner{fx: fx, def: def, orc: orc, want: want, seed: seed, traced: traced}
	for _, q := range def.stmts {
		r.bodies = append(r.bodies, sqlBody(q.sql()))
	}
	if want != nil {
		r.verified = make([]atomic.Pointer[[]byte], len(def.stmts))
	}
	return r
}

// fail counts one failed operation and reports the first few.
func (r *runner) fail(o op, err error) {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.failures++
	if r.failures <= 5 {
		text := ""
		if o.write != nil {
			text = o.write.sql()
		} else {
			text = r.def.stmts[o.stmt].sql()
		}
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %q: %v\n", r.def.name, text, err)
	}
}

// do sends one request, waits for the whole response, and checks it.
// epoch is the start of the timed run.
func (r *runner) do(o op, epoch time.Time) opRecord {
	rec := opRecord{stmt: o.stmt, write: o.write}
	path, body := "/v1/query", []byte(nil)
	if o.write != nil {
		path, body = "/v1/write", sqlBody(o.write.sql())
	} else {
		body = r.bodies[o.stmt]
	}
	req, err := http.NewRequest(http.MethodPost, r.fx.url+path, bytes.NewReader(body))
	if err != nil {
		r.fail(o, err)
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	rec.sent = time.Since(epoch)
	rec.due = rec.sent
	resp, err := r.fx.client.Do(req)
	if err != nil {
		rec.end = time.Since(epoch)
		r.fail(o, err)
		return rec
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end = time.Since(epoch)
	rec.status = resp.StatusCode
	rec.respBytes = len(payload)
	if err != nil {
		r.fail(o, err)
		return rec
	}
	if r.traced {
		h := resp.Header
		rec.virtWait, _ = time.ParseDuration(h.Get("X-Eimdb-Latency"))
		rec.dop, _ = strconv.Atoi(h.Get("X-Eimdb-Dop"))
		rec.group, _ = strconv.Atoi(h.Get("X-Eimdb-Group-Size"))
		rec.shared = h.Get("X-Eimdb-Shared") == "true"
		rec.hit = h.Get("X-Eimdb-Cache") == "hit"
	}
	if resp.StatusCode != http.StatusOK {
		r.fail(o, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(payload)))
		return rec
	}
	if err := r.check(o, payload, &rec); err != nil {
		r.fail(o, err)
		return rec
	}
	rec.ok = true
	return rec
}

// check verifies a 200 body against the oracle and, for a write,
// replays it onto the oracle's tables.
func (r *runner) check(o op, payload []byte, rec *opRecord) error {
	if o.write != nil {
		var b writeBody
		if err := json.Unmarshal(payload, &b); err != nil {
			return err
		}
		rec.joules, rec.walBytes, rec.ts = b.Energy.Joules, b.Work.BytesWrittenSSD, b.TS
		if err := checkWrite(b, *o.write); err != nil {
			return err
		}
		return r.orc.apply(*o.write)
	}
	var b queryBody
	if err := json.Unmarshal(payload, &b); err != nil {
		return err
	}
	rec.joules = b.Energy.Joules
	q := r.def.stmts[o.stmt]
	if r.want == nil { // a workload with writes reads only point aggregates
		key := q.preds[0].val
		if !r.sweeping {
			return checkRows(b.Rows, q, r.orc.point(key))
		}
		want := r.orc.eval(q)
		if l := r.orc.point(key)[""]; l.count != want[""].count || math.Abs(l.sumF-want[""].sumF) > floatTol*math.Abs(want[""].sumF) {
			return fmt.Errorf("oracle ledger %+v disagrees with its own rows %+v", l, want[""])
		}
		return checkRows(b.Rows, q, want)
	}
	if v := r.verified[o.stmt].Load(); v != nil && bytes.Equal(*v, b.Rows) {
		return nil
	}
	if err := checkRows(b.Rows, q, r.want[o.stmt]); err != nil {
		return err
	}
	rows := append([]byte(nil), b.Rows...)
	r.verified[o.stmt].Store(&rows)
	return nil
}

// warm issues every distinct read statement once, untimed, so plan
// caches are filled and lazy set-up is done before the clock starts.
func (r *runner) warm() error {
	for i := range r.def.stmts {
		if rec := r.do(op{stmt: i}, time.Now()); !rec.ok {
			return fmt.Errorf("warm-up of %q failed", r.def.stmts[i].sql())
		}
	}
	return nil
}

// run drives the workload for d and returns every operation attempted
// plus the wall time from the first send to the last response.
func (r *runner) run(d time.Duration) ([]opRecord, time.Duration) {
	if r.def.open {
		return r.runOpen(d)
	}
	return r.runClosed(d)
}

// runClosed runs numClients clients, each sending its next request only
// after the previous response, until d has passed.
func (r *runner) runClosed(d time.Duration) ([]opRecord, time.Duration) {
	n := numClients()
	per := make([][]opRecord, n)
	var wg sync.WaitGroup
	epoch := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := r.def.newGen(c)
			for time.Since(epoch) < d {
				per[c] = append(per[c], r.do(next(), epoch))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(epoch)
	var all []opRecord
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// runOpen sends stormRate*d requests at arrival times drawn uniformly
// over d — a Poisson process conditioned on its count, so the offered
// load is exactly stormRate on every run — over numClients connections.
// A request whose connection is still busy at its arrival time goes out
// late, and its latency is still counted from the arrival time.
func (r *runner) runOpen(d time.Duration) ([]opRecord, time.Duration) {
	count := int(stormRate * d.Seconds())
	if count < 1 {
		count = 1
	}
	rng := clientRNG(r.seed, "arrivals", 0)
	due := make([]time.Duration, count)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	next := r.def.newGen(0)
	ops := make([]op, count)
	for i := range ops {
		ops[i] = next()
	}

	recs := make([]opRecord, count)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	for c := 0; c < numClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= count {
					return
				}
				time.Sleep(due[i] - time.Since(epoch))
				recs[i] = r.do(ops[i], epoch)
				recs[i].due = due[i]
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(epoch)
}

// sweep is mixed_rw's final check.  During the timed run each read was
// checked against the oracle's ledger, which replays every acknowledged
// write in O(1); now every hot key is read back once more and compared
// with a row-at-a-time evaluation over the oracle's tables — and the
// ledger with that evaluation — so an acknowledged write that is not
// readable, a lost update, or a ledger that drifted from the rows fails
// here even if no timed read landed on it.  Commit timestamps must also
// be unique.  Returns the number of reads it added.
func (r *runner) sweep(recs []opRecord) int {
	seen := make(map[int64]bool)
	for _, rec := range recs {
		if rec.write == nil || !rec.ok {
			continue
		}
		if seen[rec.ts] {
			r.fail(op{write: rec.write}, fmt.Errorf("commit timestamp %d acknowledged twice", rec.ts))
		}
		seen[rec.ts] = true
	}
	r.sweeping = true
	for i := range r.def.stmts {
		r.do(op{stmt: i}, time.Now())
	}
	r.sweeping = false
	return len(r.def.stmts)
}
