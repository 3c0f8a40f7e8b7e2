package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/vec"
	"repro/internal/workload"
)

// The ladder times one call into each layer's public entry point, from
// the outside in, for every distinct statement of a workload:
//
//	loopback round trip → Server.ServeHTTP → sql.Parse → Engine.Plan →
//	core.Loop offer/react/drain → exec.Node.Run → IntColumn.ScanRows →
//	vec.Packed.Scan
//
// and for writes: round trip → ServeHTTP → sql.ParseStmt →
// Engine.ExecDML → TableTx.Commit.  Each rung is measured on its own, on
// a fresh warmed engine, so a rung's self time is its duration minus the
// rung below; the spans written to trace.json lay those independent
// measurements out as one nested trace per statement, weighted by how
// often the traced replay issued the statement.

// Span names, outermost first.
const (
	spanRequest   = "loadgen.request"
	spanNet       = "net.roundtrip"
	spanServe     = "server.ServeHTTP"
	spanVirtWait  = "server.virtual_wait"
	spanParse     = "sql.Parse"
	spanPlan      = "opt.Plan"
	spanLoop      = "core.Loop"
	spanRun       = "exec.Run"
	spanScan      = "colstore.ScanRows"
	spanExecDML   = "core.ExecDML"
	spanTxnCommit = "txn.Commit"
)

// rung is one measured layer call and the rungs below it.
type rung struct {
	name string
	dur  time.Duration
	kids []rung
}

// traceBuilder lays rungs out as spans.
type traceBuilder struct {
	spans  []span
	nextID int
}

// add appends r under parent starting at start; children follow one
// another from the parent's start.
func (b *traceBuilder) add(trace, parent int, start int64, weight float64, r rung) {
	b.nextID++
	id := b.nextID
	b.spans = append(b.spans, span{Name: r.name, Trace: trace, ID: id, Parent: parent,
		Start: start, End: start + int64(r.dur), Weight: weight})
	at := start
	for _, k := range r.kids {
		b.add(trace, id, at, 0, k)
		at += int64(k.dur)
	}
}

// fastest calls measure two to five times, stopping once 40ms have been
// measured, and returns the shortest duration it reported.  The rungs are
// timed one after another, not nested in one call, so a garbage
// collection or a scheduling hiccup that lands in one rung and not in its
// parent would otherwise make the child look longer than the parent; the
// minimum is the run least disturbed.
func fastest(measure func() time.Duration) time.Duration {
	var total, best time.Duration
	for n := 0; n < 5 && (n < 2 || total < 40*time.Millisecond); n++ {
		d := measure()
		total += d
		if n == 0 || d < best {
			best = d
		}
	}
	return best
}

// timeCall is fastest over the wall time of f.
func timeCall(f func()) time.Duration {
	return fastest(func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	})
}

// stmtUse is how the traced replay used one read statement.
type stmtUse struct {
	count, misses int
}

// ladderStats are the per-op figures the ladder measures that are not
// span self times.  All are weighted by statement frequency.
type ladderStats struct {
	spans []span

	runUS, scanUS       float64
	scanLogicalBytes    float64 // column bytes ScanRows covered per op
	tuplesIn, tuplesOut float64
	fused               float64
	allocs, allocKB     float64
	dramBytes           float64
	estOverActual       float64
	modelCPUOverWall    float64
	dmlUS, commitUS     float64
	packedGBs, rawGBs   float64
}

var cmpOps = map[string]vec.CmpOp{"=": vec.EQ, "<=": vec.LE}

// predTable names the table an integer predicate column belongs to.
func predTable(col string) string {
	if col == "tier" {
		return "customers"
	}
	return "orders"
}

// walkLadder measures every rung for each read statement the replay
// used, then for a sample of the workload's writes.  Span and trace ids
// start after idBase, the ids the replay's own spans took.
func walkLadder(s served, def *workloadDef, uses []stmtUse, writes, totalOps int, d *dataset, idBase int) (*ladderStats, error) {
	fx, r := s.fx, s.r
	st := &ladderStats{}
	tb := &traceBuilder{nextID: idBase}
	pstate := opt.NewCostModel(fx.eng.Model()).PState
	for i, u := range uses {
		if u.count == 0 {
			continue
		}
		w := float64(u.count) / float64(totalOps)
		miss := float64(u.misses) / float64(u.count)
		q := def.stmts[i]
		text := q.sql()

		// The record's own send-to-response time, not the call's: do also
		// checks the response against the oracle before it returns.
		dNet := fastest(func() time.Duration {
			rec := r.do(op{stmt: i}, time.Now())
			return rec.end - rec.sent
		})

		var wait time.Duration
		dServe := timeCall(func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(r.bodies[i]))
			fx.srv.ServeHTTP(rec, req)
			wait, _ = time.ParseDuration(rec.Header().Get("X-Eimdb-Latency"))
		})

		var parsed *opt.Query
		var perr error
		dParse := timeCall(func() { parsed, perr = sql.Parse(text) })
		if perr != nil {
			return nil, fmt.Errorf("ladder: parse %q: %w", text, perr)
		}
		var node exec.Node
		var info *opt.PlanInfo
		dPlan := timeCall(func() { node, info, perr = fx.eng.Plan(parsed, opt.MinEnergy) })
		if perr != nil {
			return nil, fmt.Errorf("ladder: plan %q: %w", text, perr)
		}

		loop := fx.eng.NewLoop(schedConfig())
		dop := 1
		var billed float64
		dLoop := timeCall(func() {
			t := loop.OfferPlanned(loop.Now(), node, info, opt.MinEnergy)
			loop.React()
			loop.RunToIdle()
			dop, billed, perr = t.DOP, float64(t.Energy.Total()), t.Err
		})
		if perr != nil {
			return nil, fmt.Errorf("ladder: loop %q: %w", text, perr)
		}

		var ctx *exec.Ctx
		var m0, m1 runtime.MemStats
		dRun := timeCall(func() {
			ctx = exec.NewCtx()
			ctx.Lease = exec.NewLease(dop)
			_, perr = node.Run(ctx)
		})
		// Allocation counts come from one more run, bracketed on its own.
		runtime.ReadMemStats(&m0)
		actx := exec.NewCtx()
		actx.Lease = exec.NewLease(dop)
		if _, err := node.Run(actx); err != nil {
			perr = err
		}
		runtime.ReadMemStats(&m1)
		if perr != nil {
			return nil, fmt.Errorf("ladder: run %q: %w", text, perr)
		}
		work := ctx.Meter.Snapshot()

		var dScan time.Duration
		for _, p := range q.preds {
			t, err := fx.eng.Catalog().Table(predTable(p.col))
			if err != nil {
				return nil, err
			}
			col, err := t.IntCol(p.col)
			if err != nil {
				return nil, err
			}
			dScan += timeCall(func() { scanParallel(col, cmpOps[p.op], p.val, dop) })
			st.scanLogicalBytes += w * float64(col.Len()) * 8
		}

		extra := time.Duration(miss * float64(dParse+dPlan)) // what a plan-cache miss adds
		tb.add(idBase+i+1, 0, 0, w, rung{spanNet, dNet + extra, []rung{{spanServe, dServe + extra, []rung{
			{spanVirtWait, wait, nil},
			{spanParse, time.Duration(miss * float64(dParse)), nil},
			{spanPlan, time.Duration(miss * float64(dPlan)), nil},
			{spanLoop, dLoop, []rung{{spanRun, dRun, []rung{{spanScan, dScan, nil}}}}},
		}}}})

		st.runUS += w * us(dRun)
		st.scanUS += w * us(dScan)
		st.tuplesIn += w * float64(work.TuplesIn)
		st.tuplesOut += w * float64(work.TuplesOut)
		if info.FusedAgg || len(info.FusedProbes) > 0 {
			st.fused += w
		}
		st.allocs += w * float64(m1.Mallocs-m0.Mallocs)
		st.allocKB += w * float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
		st.dramBytes += w * float64(work.BytesReadDRAM)
		if billed > 0 {
			st.estOverActual += w * float64(info.Est.Energy) / billed
		}
		st.modelCPUOverWall += w * float64(fx.eng.Model().CPUTime(work, pstate)) / float64(dRun)
	}
	readShare := 1 - float64(writes)/float64(totalOps)
	if readShare > 0 { // ratios above are means over read ops
		st.estOverActual /= readShare
		st.modelCPUOverWall /= readShare
	}

	if writes > 0 {
		if err := walkWrites(fx, def, r, tb, idBase+len(def.stmts)+1, st, float64(writes)/float64(totalOps), d); err != nil {
			return nil, err
		}
	}
	vecRung(st, def, d)
	st.spans = tb.spans
	return st, nil
}

// scanParallel evaluates the predicate over the whole column in dop
// contiguous row ranges, one goroutine each — the executor's morsel
// parallelism at the query's granted width, so the rung's wall time is
// comparable with exec.Run's.
func scanParallel(col *colstore.IntColumn, op vec.CmpOp, val int64, dop int) {
	n := col.Len()
	var wg sync.WaitGroup
	for i := 0; i < dop; i++ {
		lo, hi := i*n/dop, (i+1)*n/dop
		wg.Add(1)
		go func() {
			defer wg.Done()
			col.ScanRows(op, val, lo, hi, vec.NewBitvec(hi-lo))
		}()
	}
	wg.Wait()
}

// walkWrites measures the write ladder over the first writes of client
// 0's stream, applied in stream order (so every UPDATE and DELETE finds
// its row) and dealt round-robin to the three entry points.
func walkWrites(fx *fixture, def *workloadDef, r *runner, tb *traceBuilder, trace int, st *ladderStats, weight float64, d *dataset) error {
	const perPath = 16
	next := def.newGen(0)
	var net, serve, parse, dml []float64
	for len(dml) < perPath {
		o := next()
		if o.write == nil {
			continue
		}
		text := o.write.sql()
		switch (len(net) + len(serve) + len(dml)) % 3 {
		case 0:
			rec := r.do(o, time.Now())
			if !rec.ok {
				return fmt.Errorf("ladder: write %q failed over loopback", text)
			}
			net = append(net, us(rec.end-rec.sent))
			continue // do already replayed it onto the oracle
		case 1:
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/write", bytes.NewReader(sqlBody(text)))
			t0 := time.Now()
			fx.srv.ServeHTTP(rec, req)
			serve = append(serve, us(time.Since(t0)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ladder: write %q: status %d", text, rec.Code)
			}
		case 2:
			t0 := time.Now()
			stmt, err := sql.ParseStmt(text)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("ladder: parse %q: %w", text, err)
			}
			_, err = fx.eng.ExecDML(stmt.DML, fx.clock.Now())
			dml = append(dml, us(time.Since(t1)))
			parse = append(parse, us(t1.Sub(t0)))
			if err != nil {
				return fmt.Errorf("ladder: ExecDML %q: %w", text, err)
			}
		}
		if err := r.orc.apply(*o.write); err != nil {
			return err
		}
	}

	// Commit alone: a transaction with one buffered insert of a row no
	// workload statement can see (custkey -1), timing only Commit.
	orders, err := fx.eng.Catalog().Table("orders")
	if err != nil {
		return err
	}
	var commit []float64
	for k := 0; k < perPath; k++ {
		w := writeSpec{kind: writeInsert, id: int64(-1 - k), custkey: -1,
			amount: 1, day: d.orders.OrderDay[0]}
		tx := fx.eng.Txn().Begin()
		tx.Insert(orders, w.id, w.custkey, workload.RegionNames[w.region], w.amount, w.day)
		t0 := time.Now()
		_, err := tx.Commit(fx.clock.Now())
		commit = append(commit, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("ladder: commit: %w", err)
		}
		if err := r.orc.apply(w); err != nil {
			return err
		}
	}

	usDur := func(v []float64) time.Duration { return time.Duration(mean(v) * float64(time.Microsecond)) }
	tb.add(trace, 0, 0, weight, rung{spanNet, usDur(net), []rung{{spanServe, usDur(serve), []rung{
		{spanParse, usDur(parse), nil},
		{spanExecDML, usDur(dml), []rung{{spanTxnCommit, usDur(commit), nil}}},
	}}}})
	st.dmlUS, st.commitUS = mean(dml), mean(commit)
	return nil
}

// vecRung times the bare kernels under ScanRows on the workload's first
// predicate column: the word-parallel scan over bit-packed codes against
// the branch-free scan over raw int64s, same values, same predicate.
// Rates are in logical (8-byte) column bytes per second for both, so
// their ratio is a pure speed ratio.
func vecRung(st *ladderStats, def *workloadDef, d *dataset) {
	var p pred
	for _, q := range def.stmts {
		if len(q.preds) > 0 {
			p = q.preds[0]
			break
		}
	}
	var vals []int64
	switch p.col {
	case "custkey":
		vals = d.orders.CustKey
	case "day":
		vals = d.orders.OrderDay
	case "tier":
		vals = d.tier
	default:
		return
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	width := max(bits.Len64(uint64(hi-lo)), 1)
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		codes[i] = uint64(v - lo)
	}
	packed := vec.NewPacked(codes, width)
	n := len(vals)
	gb := float64(n) * 8 / 1e9
	out := vec.NewBitvec(n)
	dPacked := timeCall(func() { out.Reset(); packed.Scan(cmpOps[p.op], uint64(p.val-lo), out) })
	dRaw := timeCall(func() { out.Reset(); vec.ScanPredicated(vals, cmpOps[p.op], p.val, out) })
	st.packedGBs = gb / dPacked.Seconds()
	st.rawGBs = gb / dRaw.Seconds()
}

// printLadder prints every rung's time per op (weighted by statement
// frequency), its self time, and the share of it spent in the rungs
// below.
func printLadder(name string, requestNS float64, spans []span) {
	weight := traceWeights(spans)
	total := make(map[string]float64)
	for _, s := range spans {
		total[s.Name] += weight[s.Trace] * float64(s.dur())
	}
	self := selfByName(spans)
	fmt.Printf("# %s ladder, us per op (replayed %s under load: %.1f)\n", name, spanRequest, requestNS/1000)
	for _, n := range []string{spanNet, spanServe, spanVirtWait, spanParse, spanPlan, spanLoop, spanRun, spanScan, spanExecDML, spanTxnCommit} {
		if total[n] == 0 {
			continue
		}
		fmt.Printf("#   %-20s %10.1f  self %10.1f  below %5.1f%%\n", n, total[n]/1000, self[n]/1000, 100*(1-self[n]/total[n]))
	}
}
