package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	rows     int
	// setups is how many times the untraced run builds its fixture:
	// setup_s is the median, the last fixture serves the timed run.
	setups    int
	tracePath string
}

// fullRows is the orders cardinality of a real run; smokeRows that of
// the self-test.
const (
	fullRows  = 1 << 20
	smokeRows = 1 << 14
)

// perLayer lists the per-layer metrics of a traced run and their units,
// outermost layer first.  BENCHMARK.json declares the same names.
var perLayer = []metricDef{
	{"loadgen.lat_p99_ms", "ms"},
	{"loadgen.query_p50_ms", "ms"},
	{"loadgen.query_p95_ms", "ms"},
	{"loadgen.write_p50_ms", "ms"},
	{"loadgen.write_p95_ms", "ms"},
	{"loadgen.late_ms_p95", "ms"},
	{"loadgen.trace_overhead_ratio", "ratio"},
	{"ladder.closure_error_ratio", "ratio"},
	{"net.self_us_per_op", "us"},
	{"server.self_us_per_op", "us"},
	{"server.virtual_wait_us_per_op", "us"},
	{"server.queue_wait_us_per_op", "us"},
	{"server.resp_bytes_per_op", "bytes"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.rejected_429", "count"},
	{"sql.parse_us_per_op", "us"},
	{"opt.plan_us_per_op", "us"},
	{"opt.est_over_actual_j", "ratio"},
	{"core.loop_self_us_per_op", "us"},
	{"sched.dop_mean", "cores"},
	{"sched.group_size_mean", "queries"},
	{"sched.shared_ratio", "ratio"},
	{"exec.run_us_per_op", "us"},
	{"exec.self_us_per_op", "us"},
	{"exec.rows_in_per_row_out", "ratio"},
	{"exec.fused_ratio", "ratio"},
	{"exec.allocs_per_op", "count"},
	{"exec.alloc_kb_per_op", "KB"},
	{"colstore.scan_us_per_op", "us"},
	{"colstore.scan_gb_per_s", "GB/s"},
	{"colstore.dram_bytes_per_op", "bytes"},
	{"vec.packed_scan_gb_per_s", "GB/s"},
	{"vec.raw_scan_gb_per_s", "GB/s"},
	{"vec.packed_over_raw", "ratio"},
	{"core.dml_us_per_op", "us"},
	{"txn.commit_us_per_op", "us"},
	{"txn.conflicts_409", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.flushes", "count"},
	{"colstore.merges", "count"},
	{"colstore.merge_ms", "ms"},
	{"colstore.delta_rows_end", "rows"},
	{"energy.model_cpu_ns_over_wall_ns", "ratio"},
	{"proc.cpu_s_per_op", "s"},
	{"proc.alloc_kb_per_op", "KB"},
	{"proc.gc_pause_ms_total", "ms"},
}

// runWorkload runs one workload in this process and returns its result
// line.  A non-nil error means the run could not be measured at all;
// failed operations are counted in the result instead.
func runWorkload(cfg config) (result, error) {
	d := genDataset(cfg.seed, cfg.rows)
	def, err := newWorkload(cfg.workload, cfg.seed, d)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, d, def)
	}
	return runEndToEnd(cfg, d, def)
}

// served is a warmed fixture with the runner that drives it.
type served struct {
	fx *fixture
	r  *runner
}

// serve builds a fresh fixture and warms it.
func serve(cfg config, d *dataset, def *workloadDef, orc *oracle, want []map[string]agg, traced bool) (served, error) {
	fx, err := newFixture(d, def.mergeDeltaRows)
	if err != nil {
		return served{}, err
	}
	r := newRunner(fx, def, orc, want, cfg.seed, traced)
	if err := r.warm(); err != nil {
		fx.close()
		return served{}, err
	}
	return served{fx, r}, nil
}

// runEndToEnd is the untraced pass: the end-to-end metrics.
func runEndToEnd(cfg config, d *dataset, def *workloadDef) (result, error) {
	orc := newOracle(d)
	want := fixedAnswers(def, orc)
	var s served
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if s.fx != nil {
			// Drop the previous engine before building the next, so the
			// peak-RSS figure is that of one engine, not of several.
			s.fx.close()
			s = served{}
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if s, err = serve(cfg, d, def, orc, want, false); err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.fx.close()

	recs, wall := s.r.run(time.Duration(cfg.seconds * float64(time.Second)))
	attempted := len(recs)
	if def.mergeDeltaRows > 0 {
		attempted += s.r.sweep(recs)
	}
	p50, p90, windows, samples := windowQuantiles(recs, wall)
	ratio, err := s.fx.storeRatio()
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	values := map[string]float64{
		"setup_s":                   median(setupS),
		"ops_per_s":                 throughput(recs, wall),
		"lat_p50_ms":                p50,
		"lat_p90_ms":                p90,
		"model_mj_per_op":           meanModelMJ(recs),
		"peak_rss_mb":               rss,
		"store_bytes_per_user_byte": ratio,
	}
	res := result{Correct: s.r.failures == 0, Attempted: attempted, Failed: s.r.failures, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	fmt.Printf("# %s: %d ops in %.2fs; latency percentiles are medians over %d windows of ~%d samples (%d beyond each p90)\n",
		def.name, len(recs), wall.Seconds(), windows, samples/windows, samples/windows/10)
	return res, nil
}

// serverStats is the part of GET /v1/stats the traced run reads.
type serverStats struct {
	Merges    uint64 `json:"merges"`
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
}

func (f *fixture) stats() (serverStats, error) {
	var st serverStats
	resp, err := f.client.Get(f.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.Unmarshal(body, &st)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only fails on a bad argument
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced is the traced pass: half the time untraced (the baseline
// for the tracing overhead), half traced with a span per request and the
// X-Eimdb-* headers and /v1/stats deltas captured as counts, then the
// layer ladder on a third fresh engine.
func runTraced(cfg config, d *dataset, def *workloadDef) (result, error) {
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	// A workload with writes mutates its oracle, so each fixture gets its
	// own; read-only workloads share one.
	shared := newOracle(d)
	want := fixedAnswers(def, shared)
	oracleFor := func() *oracle {
		if def.mergeDeltaRows > 0 {
			return newOracle(d)
		}
		return shared
	}

	plain, err := serve(cfg, d, def, oracleFor(), want, false)
	if err != nil {
		return result{}, err
	}
	plainRecs, plainWall := plain.r.run(half)
	plain.fx.close()
	failures := plain.r.failures
	plain = served{}
	debug.FreeOSMemory()

	tr, err := serve(cfg, d, def, oracleFor(), want, true)
	if err != nil {
		return result{}, err
	}
	stats0, err := tr.fx.stats()
	if err != nil {
		tr.fx.close()
		return result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	recs, wall := tr.r.run(half)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	stats1, err := tr.fx.stats()
	if err != nil {
		tr.fx.close()
		return result{}, err
	}
	_, flushes, _, _ := tr.fx.eng.Txn().Stats()
	tr.fx.close()
	failures += tr.r.failures

	// Merge whatever delta the run left behind, to time a compaction of
	// the workload's own final delta.
	orders, err := tr.fx.eng.Catalog().Table("orders")
	if err != nil {
		return result{}, err
	}
	deltaEnd := orders.DeltaRows()
	var mergeMS float64
	if deltaEnd > 0 {
		t0 := time.Now()
		if _, err := orders.Merge(0); err != nil {
			return result{}, fmt.Errorf("merge of final delta: %w", err)
		}
		mergeMS = ms(time.Since(t0))
	}
	tr = served{}
	debug.FreeOSMemory()

	// One loadgen.request span per traced operation.
	spans := make([]span, 0, len(recs))
	uses := make([]stmtUse, len(def.stmts))
	var writes, ok, rejected, conflicts, sharedOps, grouped int
	var virtWait, respBytes, dop, group, walBytes, userBytes float64
	var late []float64
	for i, rec := range recs {
		spans = append(spans, span{Name: spanRequest, Trace: i + 1, ID: i + 1,
			Start: int64(rec.due), End: int64(rec.end), Weight: 1 / float64(len(recs))})
		late = append(late, ms(rec.sent-rec.due))
		switch rec.status {
		case http.StatusTooManyRequests:
			rejected++
		case http.StatusConflict:
			conflicts++
		}
		if !rec.ok {
			continue
		}
		ok++
		respBytes += float64(rec.respBytes)
		if rec.write != nil {
			writes++
			walBytes += float64(rec.walBytes)
			userBytes += float64(rec.write.userBytes())
			continue
		}
		uses[rec.stmt].count++
		if !rec.hit {
			uses[rec.stmt].misses++
		}
		virtWait += us(rec.virtWait)
		dop += float64(rec.dop)
		group += float64(rec.group)
		if rec.group > 1 {
			grouped++
			if rec.shared {
				sharedOps++
			}
		}
	}
	if ok == 0 {
		return result{}, fmt.Errorf("%s: no operation succeeded in the traced run", def.name)
	}
	reads := ok - writes

	lad, err := serve(cfg, d, def, oracleFor(), want, false)
	if err != nil {
		return result{}, err
	}
	ladder, err := walkLadder(lad, def, uses, writes, ok, d, len(recs))
	lad.fx.close()
	if err != nil {
		return result{}, err
	}
	failures += lad.r.failures

	self := selfByName(ladder.spans)
	_, _, closureErr := closure(ladder.spans)
	var ladderRoot float64 // expected unloaded latency per op, ns
	for _, s := range ladder.spans {
		if s.Parent == 0 {
			ladderRoot += s.Weight * float64(s.dur())
		}
	}
	all := latenciesMS(recs, anyOp)
	queries, writeLat := latenciesMS(recs, isRead), latenciesMS(recs, isWrite)
	if err := writeTrace(cfg.tracePath, append(spans, ladder.spans...)); err != nil {
		return result{}, err
	}

	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perUS := func(name string) float64 { return self[name] / 1000 }
	lookups := float64(stats1.PlanCache.Hits + stats1.PlanCache.Misses - stats0.PlanCache.Hits - stats0.PlanCache.Misses)
	sort.Float64s(late)
	values := map[string]float64{
		"loadgen.lat_p99_ms":               quantile(all, 0.99),
		"loadgen.query_p50_ms":             quantile(queries, 0.50),
		"loadgen.query_p95_ms":             quantile(queries, 0.95),
		"loadgen.write_p50_ms":             quantile(writeLat, 0.50),
		"loadgen.write_p95_ms":             quantile(writeLat, 0.95),
		"loadgen.late_ms_p95":              quantile(late, 0.95),
		"loadgen.trace_overhead_ratio":     div(throughput(recs, wall), throughput(plainRecs, plainWall)),
		"ladder.closure_error_ratio":       closureErr,
		"net.self_us_per_op":               perUS(spanNet),
		"server.self_us_per_op":            perUS(spanServe),
		"server.virtual_wait_us_per_op":    div(virtWait, float64(reads)),
		"server.queue_wait_us_per_op":      max(0, mean(all)*1000-ladderRoot/1000),
		"server.resp_bytes_per_op":         respBytes / float64(ok),
		"server.plan_cache_hit_ratio":      div(float64(stats1.PlanCache.Hits-stats0.PlanCache.Hits), lookups),
		"server.rejected_429":              float64(rejected),
		"sql.parse_us_per_op":              perUS(spanParse),
		"opt.plan_us_per_op":               perUS(spanPlan),
		"opt.est_over_actual_j":            ladder.estOverActual,
		"core.loop_self_us_per_op":         perUS(spanLoop),
		"sched.dop_mean":                   div(dop, float64(reads)),
		"sched.group_size_mean":            div(group, float64(reads)),
		"sched.shared_ratio":               div(float64(sharedOps), float64(grouped)),
		"exec.run_us_per_op":               ladder.runUS,
		"exec.self_us_per_op":              perUS(spanRun),
		"exec.rows_in_per_row_out":         div(ladder.tuplesIn, ladder.tuplesOut),
		"exec.fused_ratio":                 div(ladder.fused, float64(reads)/float64(ok)),
		"exec.allocs_per_op":               ladder.allocs,
		"exec.alloc_kb_per_op":             ladder.allocKB,
		"colstore.scan_us_per_op":          ladder.scanUS,
		"colstore.scan_gb_per_s":           div(ladder.scanLogicalBytes/1e9, ladder.scanUS/1e6),
		"colstore.dram_bytes_per_op":       ladder.dramBytes,
		"vec.packed_scan_gb_per_s":         ladder.packedGBs,
		"vec.raw_scan_gb_per_s":            ladder.rawGBs,
		"vec.packed_over_raw":              div(ladder.packedGBs, ladder.rawGBs),
		"core.dml_us_per_op":               ladder.dmlUS,
		"txn.commit_us_per_op":             ladder.commitUS,
		"txn.conflicts_409":                float64(conflicts),
		"wal.bytes_per_user_byte":          div(walBytes, userBytes),
		"wal.flushes":                      float64(flushes),
		"colstore.merges":                  float64(stats1.Merges - stats0.Merges),
		"colstore.merge_ms":                mergeMS,
		"colstore.delta_rows_end":          float64(deltaEnd),
		"energy.model_cpu_ns_over_wall_ns": ladder.modelCPUOverWall,
		"proc.cpu_s_per_op":                (cpu1 - cpu0) / float64(len(recs)),
		"proc.alloc_kb_per_op":             float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(recs)),
		"proc.gc_pause_ms_total":           float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	res := result{Correct: failures == 0, Attempted: len(plainRecs) + len(recs), Failed: failures, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	printLadder(def.name, mean(all)*1e6, ladder.spans)
	if closureErr > 0.10 {
		fmt.Printf("# %s: WARNING: ladder self times sum to %.0f%% off the round trip: a rung measured longer than the rung above it\n",
			def.name, closureErr*100)
	}
	return res, nil
}
