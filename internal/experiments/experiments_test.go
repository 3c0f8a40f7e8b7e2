package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments/coresim"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 25 {
		t.Fatalf("expected 25 experiments (E1-E14 + extensions E15-E25), have %d", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d has ID %q, want %q", i+1, e.ID, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, err := ByID("E3"); err != nil {
		t.Error("ByID(E3) failed")
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown ID must error")
	}
}

func TestE1CurveShape(t *testing.T) {
	points := E1Curve()
	if len(points) < 5 {
		t.Fatal("need a sweep")
	}
	first, last := points[0], points[len(points)-1]
	if first.Cap >= last.Cap {
		t.Fatal("caps must be ascending")
	}
	// Tight cap must be slower and allow fewer cores than the loose cap.
	if first.AvgLatency <= last.AvgLatency {
		t.Errorf("tight cap must be slower: %v vs %v", first.AvgLatency, last.AvgLatency)
	}
	if first.Cores >= last.Cores {
		t.Errorf("tight cap must allow fewer cores: %d vs %d", first.Cores, last.Cores)
	}
	if first.Throughput >= last.Throughput {
		t.Errorf("tight cap must cut throughput: %g vs %g", first.Throughput, last.Throughput)
	}
	// Plan choice must differ between the extremes (the Fig. 2 switch).
	if first.PlanChosen == last.PlanChosen {
		t.Errorf("plan choice should flip across the cap sweep, both %q", first.PlanChosen)
	}
}

// TestE2Shape: both layouts answer the same relation (E2Sweep errors
// otherwise), the sorted one is cheaper at every selectivity, and at
// needle selectivities (<= 1e-4) by at least 100x.
func TestE2Shape(t *testing.T) {
	rows, err := E2Sweep(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckE2Shape(rows); err != nil {
		t.Fatal(err)
	}
}

func TestE3AgreementAndShape(t *testing.T) {
	rows := E3Matrix(200_000)
	agree := 0
	var slowRuns, fastUniform *E3Row
	for i := range rows {
		r := &rows[i]
		if r.Agreement {
			agree++
		}
		if r.Data == "runs(avg100)" && r.Link == "0.1Gbps" {
			slowRuns = r
		}
		if r.Data == "uniform62bit" && r.Link == "40Gbps" {
			fastUniform = r
		}
	}
	if agree < len(rows)*3/4 {
		t.Errorf("estimator agrees on only %d/%d cells", agree, len(rows))
	}
	if slowRuns == nil || slowRuns.Chosen == "none" {
		t.Errorf("slow link + compressible data must compress: %+v", slowRuns)
	}
	if fastUniform == nil || (fastUniform.Chosen != "none" && fastUniform.Ratio < 0.9) {
		t.Errorf("fast link + incompressible data should ship (near) raw: %+v", fastUniform)
	}
}

func TestE5Shape(t *testing.T) {
	rows := E5Sweep()
	// At the lowest rate, race-to-idle must beat always-on on J/query.
	var on, rti *E5Row
	for i := range rows {
		r := &rows[i]
		if r.Rate == 50 && r.Policy == coresim.AlwaysOn {
			on = r
		}
		if r.Rate == 50 && r.Policy == coresim.RaceToIdle {
			rti = r
		}
	}
	if on == nil || rti == nil {
		t.Fatal("sweep missing expected points")
	}
	if rti.JPerQuery >= on.JPerQuery {
		t.Errorf("race-to-idle must save energy at low load: %v vs %v", rti.JPerQuery, on.JPerQuery)
	}
}

func TestE6Shape(t *testing.T) {
	rows := E6Placements()
	find := func(placement, op string) *E6Row {
		for i := range rows {
			if rows[i].Placement == placement && strings.Contains(rows[i].Op, op) {
				return &rows[i]
			}
		}
		return nil
	}
	dramPoint := find("all-DRAM", "point")
	hddPoint := find("all-HDD", "point")
	agedPoint := find("aged", "point")
	if dramPoint == nil || hddPoint == nil || agedPoint == nil {
		t.Fatal("missing rows")
	}
	if hddPoint.Time < dramPoint.Time*100 {
		t.Errorf("HDD point access must be orders slower: %v vs %v", hddPoint.Time, dramPoint.Time)
	}
	if agedPoint.Time != dramPoint.Time {
		t.Errorf("aged placement must keep hot point access at DRAM speed: %v vs %v",
			agedPoint.Time, dramPoint.Time)
	}
	if len(E6Aging()) == 0 {
		t.Error("aging must migrate the cold fragment")
	}
}

func TestE7Shape(t *testing.T) {
	rows := E7Kernels(400_000, 2)
	// Word-parallel must beat branching at 50% selectivity for narrow
	// codes (the SIMD-substitute claim).
	var branch50, packed50 *E7Row
	for i := range rows {
		r := &rows[i]
		if r.Width == 8 && r.Selectivity == 0.5 {
			switch r.Kernel {
			case "branching":
				branch50 = r
			case "word-parallel":
				packed50 = r
			}
		}
	}
	if branch50 == nil || packed50 == nil {
		t.Fatal("missing kernel rows")
	}
	if packed50.MTuplesSec <= branch50.MTuplesSec {
		t.Errorf("word-parallel (%g Mt/s) must beat branching (%g Mt/s) at 8-bit codes",
			packed50.MTuplesSec, branch50.MTuplesSec)
	}
}

func TestE8Shape(t *testing.T) {
	rows := E8Sweep()
	// Long query failing late: checkpoint must waste far less than rerun.
	var rerun, ckpt *E8Row
	for i := range rows {
		r := &rows[i]
		if r.Stages == 40 && r.FailFrac == 0.9 {
			if r.Policy.Every == 0 {
				rerun = r
			} else {
				ckpt = r
			}
		}
	}
	if rerun == nil || ckpt == nil {
		t.Fatal("missing rows")
	}
	if ckpt.Wasted*4 > rerun.Wasted {
		t.Errorf("checkpointing must cut waste at least 4x for late failures: %v vs %v",
			ckpt.Wasted, rerun.Wasted)
	}
}

func TestE9Shape(t *testing.T) {
	rows := E9Sweep()
	// Within a fixed window, latency must rise with level.
	var prev *E9Row
	for i := range rows {
		r := &rows[i]
		if r.Window != 0 {
			continue
		}
		if prev != nil && r.AvgLat < prev.AvgLat {
			t.Errorf("%v avg latency %v below %v's %v", r.Level, r.AvgLat, prev.Level, prev.AvgLat)
		}
		prev = r
	}
}

func TestE10Shape(t *testing.T) {
	rows := E10Sweep()
	last := rows[len(rows)-1]
	if last.Tables != 20_000 {
		t.Fatal("sweep must reach 20k tables")
	}
	if last.GreedyTime.Seconds() > 30 {
		t.Errorf("greedy at 20k tables took %v", last.GreedyTime)
	}
	for _, r := range rows {
		if r.Exact && r.CostRatio != 0 && r.CostRatio < 0.999 {
			t.Errorf("greedy cannot beat the exact DP: ratio %g at %d tables", r.CostRatio, r.Tables)
		}
	}
}

func TestE11Shape(t *testing.T) {
	res := E11Run(6000)
	if res.Elastic.TotalEnergy >= res.Static.TotalEnergy {
		t.Errorf("elastic must save energy: %v vs %v", res.Elastic.TotalEnergy, res.Static.TotalEnergy)
	}
	if res.Static.TotalDrop != 0 {
		t.Error("static peak provisioning must not drop")
	}
}

func TestE12Shape(t *testing.T) {
	rows, err := E12Sweep(20_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mode.String() == "deferred" && r.Reads == 0 && r.MaintOps != 0 {
			t.Errorf("deferred with no readers must do zero maintenance: %+v", r)
		}
		if r.Mode.String() == "eager" && r.MaintOps != r.Inserts {
			t.Errorf("eager must pay per insert: %+v", r)
		}
	}
}

func TestE15Shape(t *testing.T) {
	rows := E15Sweep()
	for _, r := range rows {
		if r.Ops == 3 && r.Device == "gpu0" && r.TimePick != 0 /* OnCPU */ {
			t.Errorf("plain scans must stay on CPU: %+v", r)
		}
		if r.Ops == 64 && r.N == 100_000_000 && r.Device == "gpu0" && r.TimePick == 0 {
			t.Errorf("compute-dense 100M values must offload: %+v", r)
		}
	}
}

func TestE16Shape(t *testing.T) {
	aware, obliv := E16Schedules()
	if aware.TotalTime >= obliv.TotalTime {
		t.Errorf("NUMA-aware must win: %v vs %v", aware.TotalTime, obliv.TotalTime)
	}
	sharing := E16Sharing()
	last := sharing[len(sharing)-1]
	if last.Explicit >= last.Coherent {
		t.Errorf("16 reuse rounds must favor explicit placement: %v vs %v", last.Explicit, last.Coherent)
	}
}

func TestE17Shape(t *testing.T) {
	rows, err := E17Sweep(4, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]E17Row{}
	for _, r := range rows {
		byKey[r.Link+"/"+r.Strategy.String()] = r
	}
	slowRaw := byKey["0.1Gbps/ship-raw"]
	slowPush := byKey["0.1Gbps/pushdown"]
	if slowPush.WireBytes*10 >= slowRaw.WireBytes {
		t.Errorf("pushdown must ship far less: %d vs %d", slowPush.WireBytes, slowRaw.WireBytes)
	}
	if slowPush.Energy >= slowRaw.Energy {
		t.Errorf("pushdown must win energy on the slow link: %v vs %v", slowPush.Energy, slowRaw.Energy)
	}
	fastRaw := byKey["40Gbps/ship-raw"]
	if fastRaw.Transfer >= slowRaw.Transfer {
		t.Error("faster link must cut transfer time")
	}
}

func TestE14Equivalence(t *testing.T) {
	res, err := E14Check(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlansEqual || !res.RowsEqual {
		t.Fatalf("hybrid language fronts diverge: %+v", res)
	}
}

func TestE18Shape(t *testing.T) {
	// 300k rows clears both the planner's parallel-scan threshold and
	// HashAgg's partial-aggregation threshold, so the sweep exercises the
	// real morsel path.  E18Sweep itself fails if any DOP's relation or
	// counters diverge from DOP 1.
	rows, err := E18Sweep(300_000, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 DOP points, have %d", len(rows))
	}
	for _, r := range rows {
		if r.Groups == 0 {
			t.Errorf("DOP %d produced no groups", r.DOP)
		}
		if r.Work.IsZero() {
			t.Errorf("DOP %d charged no work", r.DOP)
		}
	}
	// The model must predict strictly falling time with rising DOP and a
	// higher energy at maximal fan-out than at the energy-optimal point.
	for i := 1; i < len(rows); i++ {
		if rows[i].ModelTime >= rows[i-1].ModelTime {
			t.Errorf("model time must fall with DOP: dop=%d %v vs dop=%d %v",
				rows[i].DOP, rows[i].ModelTime, rows[i-1].DOP, rows[i-1].ModelTime)
		}
	}
	// Race-to-idle vs active-core power: the energy optimum must be
	// interior — cheaper than serial (the idle machine burns while one
	// core grinds) and cheaper than maximal fan-out (active power
	// dominates once the background is amortized).
	best := 0
	for i, r := range rows {
		if r.ModelEnergy < rows[best].ModelEnergy {
			best = i
		}
	}
	if best == 0 || best == len(rows)-1 {
		t.Errorf("energy optimum must be interior, got DOP %d of %v", rows[best].DOP,
			[]int{rows[0].DOP, rows[len(rows)-1].DOP})
	}
}

func TestE19Shape(t *testing.T) {
	// E19Sweep itself fails if any compressed scan's result bits or
	// logical row counters diverge from the raw scan, or if the seal
	// advisor picks an unexpected codec for a shape.
	rows, err := E19Sweep(300_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		// The headline claim: operating on compressed segments streams
		// strictly fewer bytes (hence less energy) than the raw scan, at
		// every selectivity and for every codec the advisor picks.
		if r.CompBytes >= r.RawBytes {
			t.Errorf("%s %s sel=%.2f: compressed scan must touch fewer bytes: %d vs %d",
				r.Data, r.Codec, r.Selectivity, r.CompBytes, r.RawBytes)
		}
		if r.CompJ >= r.RawJ {
			t.Errorf("%s %s sel=%.2f: compressed scan must cost less energy: %v vs %v",
				r.Data, r.Codec, r.Selectivity, r.CompJ, r.RawJ)
		}
	}
	// RLE- and dict-friendly data must win big, not marginally: the runs
	// shape evaluates once per run, the sorted shape boundary-searches.
	for _, r := range rows {
		if (r.Codec == "rle" || r.Codec == "delta") && r.RawBytes < 4*r.CompBytes {
			t.Errorf("%s %s sel=%.2f: expected >=4x byte reduction, got %d vs %d",
				r.Data, r.Codec, r.Selectivity, r.RawBytes, r.CompBytes)
		}
	}
}

func TestE20Shape(t *testing.T) {
	// 300k + 30k rows clears the planner's partitioned-join threshold, so
	// the sweep exercises the real radix pipeline.  E20Sweep itself fails
	// if any DOP's relation or counters diverge, if the unsealed and
	// sealed paths return different relations (strings decoded), or if
	// the sealed path fails to stream strictly fewer DRAM bytes.
	rows, err := E20Sweep(300_000, 30_000, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("want 8 (path, DOP) points, have %d", len(rows))
	}
	for _, r := range rows {
		if r.Rows == 0 {
			t.Errorf("%s DOP %d produced no rows", r.Path, r.DOP)
		}
		if r.Bytes == 0 || r.J == 0 {
			t.Errorf("%s DOP %d charged no movement/energy", r.Path, r.DOP)
		}
	}
}

func TestE21Shape(t *testing.T) {
	// One storm, two arms, two budgets.  E21Sweep itself fails if any
	// cell's per-query relations or attributed counters diverge from the
	// first cell, or if a query is rejected.  The shape assertions here
	// are the scheduler's payoff: batching must actually fire, stream
	// fewer physical bytes, and cut fleet energy per query at every
	// budget — on identical results.
	rows, err := E21Sweep(1<<18, 64, 100_000, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 (arm, budget) cells, have %d", len(rows))
	}
	byArm := map[string]map[int]E21Row{"naive": {}, "managed": {}}
	for _, r := range rows {
		byArm[r.Arm][r.Budget] = r
	}
	for _, budget := range []int{2, 8} {
		naive, managed := byArm["naive"][budget], byArm["managed"][budget]
		if naive.Completed != 64 || managed.Completed != 64 {
			t.Fatalf("budget %d: lost queries: %d / %d", budget, naive.Completed, managed.Completed)
		}
		if managed.SharedGroups == 0 || managed.SharedTasks == 0 {
			t.Errorf("budget %d: managed arm batched nothing", budget)
		}
		if naive.SharedGroups != 0 {
			t.Errorf("budget %d: naive arm must not batch", budget)
		}
		if managed.PhysBytes >= naive.PhysBytes {
			t.Errorf("budget %d: managed arm must stream fewer physical bytes: %d vs %d",
				budget, managed.PhysBytes, naive.PhysBytes)
		}
		if managed.JPerQuery >= naive.JPerQuery {
			t.Errorf("budget %d: managed fleet J/query must be strictly lower: %v vs %v",
				budget, managed.JPerQuery, naive.JPerQuery)
		}
		if managed.SavedDynamic <= 0 {
			t.Errorf("budget %d: no dynamic energy saved", budget)
		}
	}
}

func TestE22Shape(t *testing.T) {
	// E22Sweep itself enforces the serving determinism contract (every
	// response body byte-identical across arms, nothing rejected); the
	// shape assertions here are the serving payoff: the plan cache
	// absorbs the storm's repeated texts identically in every arm, and
	// batching arms stream fewer physical bytes while banking saved-J.
	rows, err := E22Sweep(1<<17, 48, 100_000, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 (budget, batch) arms, have %d", len(rows))
	}
	for _, r := range rows {
		if r.CacheHits != rows[0].CacheHits || r.CacheMisses != rows[0].CacheMisses {
			t.Errorf("b%d/batch=%v: cache outcomes moved with the schedule: %d/%d vs %d/%d",
				r.Budget, r.Batch, r.CacheHits, r.CacheMisses, rows[0].CacheHits, rows[0].CacheMisses)
		}
		if r.CacheHits == 0 || r.CacheHits+r.CacheMisses != 48 {
			t.Errorf("b%d/batch=%v: cache books wrong: %d hits + %d misses over 48 queries",
				r.Budget, r.Batch, r.CacheHits, r.CacheMisses)
		}
	}
	byBudget := map[int]map[bool]E22Row{1: {}, 4: {}}
	for _, r := range rows {
		byBudget[r.Budget][r.Batch] = r
	}
	for _, budget := range []int{1, 4} {
		plain, batched := byBudget[budget][false], byBudget[budget][true]
		if batched.PhysBytes >= plain.PhysBytes {
			t.Errorf("budget %d: batching arm must stream fewer physical bytes: %d vs %d",
				budget, batched.PhysBytes, plain.PhysBytes)
		}
		if batched.SavedJ <= 0 || plain.SavedJ != 0 {
			t.Errorf("budget %d: saved-J books wrong: batched %v, plain %v",
				budget, batched.SavedJ, plain.SavedJ)
		}
	}
}

func TestE23Shape(t *testing.T) {
	// E23Sweep itself enforces the hard invariants (relations and
	// counters byte-identical at every DOP pre- and post-merge, delta
	// drained, bytes strictly lower); the shape assertions here are the
	// write-path payoff: the merge deferred behind same-instant
	// foreground work yet was billed as a real min-energy query.
	res, err := E23Sweep(1<<16, 512, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 DOP arms, have %d", len(res.Rows))
	}
	if res.DeltaRowsPre < 512 {
		t.Fatalf("delta too small before merge: %d rows", res.DeltaRowsPre)
	}
	if !res.MergeDeferred {
		t.Error("background merge must finish after the same-instant foreground query")
	}
	if res.MergeJ <= 0 || res.MergeWork.BytesReadDRAM == 0 {
		t.Errorf("merge not billed as a query: J=%v work=%+v", res.MergeJ, res.MergeWork)
	}
	for _, r := range res.Rows {
		if r.PostBytes >= r.PreBytes {
			t.Errorf("dop %d: merge did not lower probe bytes: pre=%d post=%d",
				r.DOP, r.PreBytes, r.PostBytes)
		}
	}
}

func TestE24Shape(t *testing.T) {
	// E24Sweep itself enforces the hard invariants: within each path,
	// relations and counters identical at every DOP; across paths,
	// byte-identical relations; fused strictly fewer DRAM bytes and less
	// energy on every arm.
	rows, err := E24Sweep(300_000, []int{1, 2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		if r.Rows == 0 {
			t.Errorf("%s %s DOP %d produced no rows", r.Arm, r.Path, r.DOP)
		}
		if r.Bytes == 0 || r.J == 0 {
			t.Errorf("%s %s DOP %d charged no movement/energy", r.Arm, r.Path, r.DOP)
		}
	}
	// The probe→aggregate arms exist and fold strictly below their
	// materializing control on both gated metrics.
	for _, sel := range []string{"0.25", "0.50", "0.90"} {
		arm := "probe-agg/region/sel=" + sel
		var fused, unfused *E24Row
		for i := range rows {
			if r := &rows[i]; r.Arm == arm && r.DOP == 1 {
				if r.Path == "fused" {
					fused = r
				} else {
					unfused = r
				}
			}
		}
		if fused == nil || unfused == nil {
			t.Fatalf("%s: arm missing from the sweep", arm)
		}
		if fused.Bytes >= unfused.Bytes || fused.J >= unfused.J {
			t.Errorf("%s: fused must touch fewer bytes and joules: %d B %v vs %d B %v",
				arm, fused.Bytes, fused.J, unfused.Bytes, unfused.J)
		}
	}
	// The optimizer must recognize (and price) every fusion it plans.
	aggInfo, joinInfo, joinAggInfo, err := E24PlannerDecisions(300_000)
	if err != nil {
		t.Fatal(err)
	}
	if ji := joinAggInfo.Joins; !joinAggInfo.FusedAgg || len(ji) != 1 || !ji[0].FusedAgg || !ji[0].FusedProbe {
		t.Errorf("planner did not mark the join under GROUP BY as fused probe→aggregate: %+v", ji)
	}
	if !aggInfo.FusedAgg {
		t.Errorf("planner did not mark the aggregate plan fused: %+v", aggInfo)
	}
	if len(joinInfo.Joins) != 1 || !joinInfo.Joins[0].FusedProbe {
		t.Errorf("planner did not mark the join probe fused: %+v", joinInfo.Joins)
	}
	if len(joinInfo.FusedProbes) != 1 || joinInfo.FusedProbes[0] != "events" {
		t.Errorf("FusedProbes must name the probe table: %v", joinInfo.FusedProbes)
	}
}

func TestE25Shape(t *testing.T) {
	// E25Sweep itself enforces the hard invariants (relations
	// byte-identical to the flat layout at every shard count × DOP,
	// counters DOP-invariant per shard count, bytes-touched strictly
	// decreasing down the ladder and superlinear end to end); the shape
	// assertions here are the layout payoff: the planner pruned shards,
	// and the rebalance deferred behind same-instant foreground work yet
	// was billed as a real min-energy query.
	res, err := experimentsE25()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 shard-count arms, have %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Rows == 0 {
			t.Errorf("k=%d: probe selected nothing", r.Shards)
		}
		if r.Shards > 1 && r.ShardsPruned == 0 {
			t.Errorf("k=%d: skewed probe pruned no shards", r.Shards)
		}
		if r.BytesTouched == 0 || r.J <= 0 {
			t.Errorf("k=%d: probe charged no movement/energy", r.Shards)
		}
	}
	if !res.RebalanceDeferred {
		t.Error("background rebalance must finish after the same-instant foreground query")
	}
	if res.RebalanceJ <= 0 || res.RebalanceWork.BytesReadDRAM == 0 {
		t.Errorf("rebalance not billed as a query: J=%v work=%+v", res.RebalanceJ, res.RebalanceWork)
	}
	if res.RebalanceMoved == 0 {
		t.Error("skewed write burst rebalanced zero rows")
	}
}

// experimentsE25 runs the sweep at the same scale as runE25 — the
// superlinearity margin was sized at 2^18 rows; smaller loads leave the
// survivor shard dominated by fixed per-shard overheads.
func experimentsE25() (*E25Result, error) {
	return E25Sweep(1<<18, []int{1, 4, 16}, []int{1, 2, 8})
}

func TestAllExperimentsRunSmall(t *testing.T) {
	// Smoke: every registered experiment must run to completion and
	// produce output.  The heavyweight sweeps run at full size only in
	// cmd/eimdb-bench; this guards the harness plumbing.
	if testing.Short() {
		t.Skip("full harness smoke test")
	}
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}
