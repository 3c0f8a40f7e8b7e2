package repro

// One benchmark per experiment in EXPERIMENTS.md (the paper has no
// numbered tables; each E-id maps to a quantified claim or to Figure 2).
// cmd/eimdb-bench prints the full experiment tables; these benches make
// the same code paths measurable under `go test -bench=. -benchmem`.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/experiments/coresim"
	"repro/internal/experiments/locks"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/vec"
	"repro/internal/wal"
	"repro/internal/workload"

	"repro/internal/energy"
)

// BenchmarkE1EnergyConstraint regenerates the Figure 2 trade-off curve.
func BenchmarkE1EnergyConstraint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiments.E1Curve()
		if len(points) == 0 {
			b.Fatal("empty curve")
		}
	}
}

// BenchmarkE2AccessPath regenerates the sorted-vs-shuffled layout sweep
// and checks its shape.
func BenchmarkE2AccessPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E2Sweep(1 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.CheckE2Shape(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3CompressVsSend regenerates the codec decision matrix.
func BenchmarkE3CompressVsSend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3Matrix(200_000)
	}
}

// BenchmarkE4SyncScaling runs the five synchronization schemes at the
// host's core count (the Shore-MT-style scaling probe).
func BenchmarkE4SyncScaling(b *testing.B) {
	for _, s := range []locks.Scheme{locks.GlobalLock, locks.ShardedLock, locks.AtomicAdd, locks.HTMSim, locks.Partitioned} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				locks.RunAggregation(s, 8, 400_000, 256, 1.1, 7)
			}
		})
	}
}

// BenchmarkE5IdlePolicies simulates the three idle-management policies
// across the load sweep.
func BenchmarkE5IdlePolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5Sweep()
	}
}

// BenchmarkE6Tiering regenerates the placement comparison.
func BenchmarkE6Tiering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6Placements()
	}
}

// BenchmarkE7ScanKernels measures the three scan kernels directly; this
// is the repository's SIMD-substitute figure.  Throughput is reported as
// bytes of logical int64 data filtered per second; bytes-touched/op is
// the physical DRAM traffic the kernel streams and J/op its energy-model
// price (the same per-byte/per-instruction formulas colstore charges).
func BenchmarkE7ScanKernels(b *testing.B) {
	const n = 1 << 20
	model := energy.DefaultModel()
	vals := synth.UniformInts(1, n, 1<<16)
	codes := make([]uint64, n)
	for i, v := range vals {
		codes[i] = uint64(v)
	}
	packed := vec.NewPacked(codes, 16)
	c := int64(1 << 15) // 50% selectivity: worst case for branching
	report := func(b *testing.B, work energy.Counters) {
		b.ReportMetric(float64(work.BytesReadDRAM), "bytes-touched/op")
		j := model.DynamicEnergy(work, model.Core.MaxPState()).Total()
		b.ReportMetric(float64(j), "J/op")
	}
	b.Run("branching", func(b *testing.B) {
		b.SetBytes(n * 8)
		report(b, energy.Counters{BytesReadDRAM: n * 8, Instructions: n * 3})
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			vec.ScanBranching(vals, vec.LT, c, out)
		}
	})
	b.Run("predicated", func(b *testing.B) {
		b.SetBytes(n * 8)
		report(b, energy.Counters{BytesReadDRAM: n * 8, Instructions: n * 3})
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			vec.ScanPredicated(vals, vec.LT, c, out)
		}
	})
	b.Run("word-parallel", func(b *testing.B) {
		b.SetBytes(n * 8)
		words := uint64(packed.WordCount())
		report(b, energy.Counters{BytesReadDRAM: words * 8, Instructions: words * 6})
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			packed.Scan(vec.LT, uint64(c), out)
		}
	})
}

// BenchmarkE8Robustness regenerates the failure-policy sweep.
func BenchmarkE8Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Sweep()
	}
}

// BenchmarkE9ReliabilityQoS measures group commit per QoS level.
func BenchmarkE9ReliabilityQoS(b *testing.B) {
	cfg := wal.DefaultConfig()
	gaps := synth.Poisson(3, 5000, 100_000)
	arrivals := make([]time.Duration, len(gaps))
	var at time.Duration
	for i, g := range gaps {
		at += g
		arrivals[i] = at
	}
	for _, level := range []wal.Level{wal.Volatile, wal.Local, wal.Repl2, wal.Repl3} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.SimulateGroupCommit(cfg, arrivals, 96, 64*time.Microsecond, level)
			}
		})
	}
}

// BenchmarkE10ManyTables measures greedy join ordering at 10,000 tables
// (the paper's ">10.000 tables in a query" requirement).
func BenchmarkE10ManyTables(b *testing.B) {
	n := 10_000
	tables := make([]opt.JoinTable, n)
	rng := workload.NewRNG(5)
	for i := range tables {
		tables[i] = opt.JoinTable{Name: "t", Rows: float64(100 + rng.Intn(1_000_000))}
	}
	g := opt.NewJoinGraph(tables)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, 1e-4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order, _, exact := g.Order()
		if exact || len(order) != n {
			b.Fatal("wrong ordering path")
		}
	}
}

// BenchmarkE11Elasticity simulates the diurnal trace comparison.
func BenchmarkE11Elasticity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11Run(6000)
	}
}

// BenchmarkE12NeedToKnow measures eager vs deferred index maintenance.
func BenchmarkE12NeedToKnow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E12Sweep(20_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Conversations measures branched vs single-truth writes.
func BenchmarkE13Conversations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E13Run(4, 20_000)
	}
}

// BenchmarkE14HybridLanguage measures both language fronts end to end.
func BenchmarkE14HybridLanguage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E14Check(50_000)
		if err != nil {
			b.Fatal(err)
		}
		if !res.PlansEqual {
			b.Fatal("plans diverged")
		}
	}
}

// BenchmarkE15XPUOffload prices the offload decision matrix (extension).
func BenchmarkE15XPUOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.E15Sweep()
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkE16NUMA evaluates NUMA schedules and sharing modes
// (extension).
func BenchmarkE16NUMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E16Schedules()
		experiments.E16Sharing()
	}
}

// BenchmarkE17Distributed runs the distributed aggregation strategies
// (extension).
func BenchmarkE17Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E17Sweep(4, 40_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18ParallelDOP runs the E18 sweep (time/energy across DOP
// 1/2/4/8) at reduced scale.
func BenchmarkE18ParallelDOP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E18Sweep(1<<19, []int{1, 2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelScanAgg is the morsel-executor acceptance benchmark:
// a 1M-row grouped aggregation (filtered parallel scan feeding the
// partial-aggregating HashAgg) at fixed degrees of parallelism.  On
// multi-core hardware dop-4 should finish in under half of dop-1's
// wall clock; results and charged counters are byte-identical at every
// DOP (asserted by TestParallelAggDOPInvariant under -race).
func BenchmarkParallelScanAgg(b *testing.B) {
	const rows = 1 << 20
	eng, err := core.OrdersEngine(rows)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := eng.Catalog().Table("orders")
	if err != nil {
		b.Fatal(err)
	}
	plan := &exec.HashAgg{
		Child: &exec.Scan{
			Source: tab,
			Select: []string{"region", "amount"},
			Preds:  []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(int64(rows/100+10) * 4 / 5)}},
		},
		GroupBy: []string{"region"},
		Aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "amount", As: "rev"}},
	}
	model := eng.Model()
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop-%d", dop), func(b *testing.B) {
			b.SetBytes(rows * 8)
			var work energy.Counters
			for i := 0; i < b.N; i++ {
				ctx := exec.NewCtx()
				ctx.Lease = exec.NewLease(dop)
				if _, err := plan.Run(ctx); err != nil {
					b.Fatal(err)
				}
				work = ctx.Meter.Snapshot()
			}
			// Counters are DOP-invariant, so the last iteration's meter
			// prices any of them.
			j := model.DynamicEnergy(work, model.Core.MaxPState()).Total()
			b.ReportMetric(float64(j), "J/op")
			b.ReportMetric(float64(work.BytesReadDRAM+work.BytesWrittenDRAM), "bytes-touched/op")
		})
	}
}

// BenchmarkE19CompressedScan scans 1M-row columns of each E19 data shape
// raw (unsealed) and sealed into the advisor-chosen compressed layout, at
// 50% selectivity.  J/op and bytes-touched/op report the energy model's
// view of one scan: the compressed arm must stream strictly fewer bytes
// (TestE19Shape asserts it; this makes the gap measurable over time).
func BenchmarkE19CompressedScan(b *testing.B) {
	const n = 1 << 20
	model := energy.DefaultModel()
	for _, shape := range experiments.E19BenchShapes(n) {
		for _, arm := range []string{"raw", "compressed"} {
			col, err := experiments.E19Column(shape.Vals, arm == "compressed")
			if err != nil {
				b.Fatal(err)
			}
			cut := shape.Cut
			b.Run(shape.Name+"/"+arm, func(b *testing.B) {
				b.SetBytes(n * 8)
				var work energy.Counters
				for i := 0; i < b.N; i++ {
					out := vec.NewBitvec(n)
					work = col.ScanRows(vec.LT, cut, 0, n, out)
				}
				j := model.DynamicEnergy(work, model.Core.MaxPState()).Total()
				b.ReportMetric(float64(j), "J/op")
				b.ReportMetric(float64(work.BytesReadDRAM), "bytes-touched/op")
			})
		}
	}
}

// BenchmarkE20PartitionedJoin joins a 1M-row sales table to a 100K-row
// customer dimension on a string key over unsealed ("raw": append-order
// dictionaries, raw 8-byte code segments) and sealed ("dict": sorted
// dictionaries, bit-packed code segments) tables — the same fused,
// translated, radix-partitioned morsel-parallel join on codes either way.
// J/op and bytes-touched/op report the energy model's view of one whole
// plan; the dict arm must stream strictly fewer bytes (TestE20Shape
// asserts it; this makes the gap measurable over time).  Wall times on the 1-CPU CI runner measure
// the code path, not parallel speedup — DOP invariance is the tested
// contract.
func BenchmarkE20PartitionedJoin(b *testing.B) {
	const nFact, nDim = 1 << 20, 100_000
	model := energy.DefaultModel()
	for _, arm := range []string{"raw", "dict"} {
		node, _, err := experiments.E20Plan(nFact, nDim, arm == "dict")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arm, func(b *testing.B) {
			b.SetBytes(nFact * 8)
			var work energy.Counters
			for i := 0; i < b.N; i++ {
				ctx := exec.NewCtx()
				ctx.Lease = exec.NewLease(2)
				rel, err := node.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if rel.N == 0 {
					b.Fatal("join produced no rows")
				}
				work = ctx.Meter.Snapshot()
			}
			j := model.DynamicEnergy(work, model.Core.MaxPState()).Total()
			b.ReportMetric(float64(j), "J/op")
			b.ReportMetric(float64(work.BytesReadDRAM), "bytes-touched/op")
		})
	}
}

// BenchmarkE21MultiQuery replays the E21 open-loop Zipf point-query
// storm (48 queries, 100k QPS offered) through both scheduler arms at a
// 2-core budget.  J/op is the modeled fleet energy of the whole storm
// and bytes-touched/op the DRAM bytes it physically streamed — both are
// deterministic (virtual-time schedule over seeded workload counters),
// so the CI bench gate diffs them against the committed baseline; the
// managed arm's numbers must sit strictly below the naive arm's
// (TestE21Shape asserts it).
func BenchmarkE21MultiQuery(b *testing.B) {
	for _, arm := range []string{"naive", "managed"} {
		b.Run(arm, func(b *testing.B) {
			var row experiments.E21Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.E21Sweep(1<<18, 48, 100_000, []int{2}, arm)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Arm == arm {
						row = r
					}
				}
			}
			if row.Completed == 0 {
				b.Fatal("storm completed nothing")
			}
			b.ReportMetric(float64(row.FleetJ), "J/op")
			b.ReportMetric(float64(row.PhysBytes), "bytes-touched/op")
		})
	}
}

// BenchmarkE22Serving replays the E22 arrival script (48 queries,
// 100k QPS offered) through the full serving front end — plan cache,
// admission, shared-scan batching, execution from virtual dispatch — at a 2-core
// budget.  J/op is the batching arm's modeled fleet energy and
// bytes-touched/op its physically streamed DRAM bytes; both are
// deterministic (simulated clock over a seeded script), so the CI
// bench gate diffs them against the committed baseline.
func BenchmarkE22Serving(b *testing.B) {
	var row experiments.E22Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.E22Sweep(1<<18, 48, 100_000, []int{2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Batch {
				row = r
			}
		}
	}
	if row.Completed == 0 {
		b.Fatal("storm completed nothing")
	}
	b.ReportMetric(float64(row.FleetJ), "J/op")
	b.ReportMetric(float64(row.PhysBytes), "bytes-touched/op")
}

// BenchmarkE23WritableDelta runs the E23 write-path sweep at a 2-way
// probe: bulk-load, 4096 DML statements into the delta, probe, then the
// scheduler-admitted min-energy background merge, probe again.
// bytes-touched/op is the post-merge probe's DRAM traffic (what the
// re-seal buys), delta-bytes-touched/op the pre-merge probe over
// main+delta, and merge-J the merge ticket's billed energy; all three
// are deterministic, so the CI bench gate diffs them against the
// committed baseline.
func BenchmarkE23WritableDelta(b *testing.B) {
	var res *experiments.E23Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.E23Sweep(1<<18, 4096, []int{2})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Rows) == 0 || !res.MergeDeferred {
		b.Fatalf("merge did not defer to foreground traffic: %+v", res)
	}
	r := res.Rows[0]
	b.ReportMetric(float64(r.PostBytes), "bytes-touched/op")
	b.ReportMetric(float64(r.PreBytes), "delta-bytes-touched/op")
	b.ReportMetric(float64(res.MergeJ), "merge-J")
}

// BenchmarkE24FusedPipeline runs the headline fused-vs-unfused arms
// (RLE-grouped aggregate, dictionary-grouped aggregate, code-domain
// probe, that probe under a GROUP BY — the probe→aggregate sink — all
// at 50% selectivity) over a 1M-row fact table at a 2-way
// morsel pool.  J/op and bytes-touched/op report the energy model's view
// of one whole plan; the fused arm must sit strictly below its unfused
// control on both (TestE24Shape asserts it; this makes the gap
// measurable over time).  Wall times on the 1-CPU CI runner measure the
// code path, not parallel speedup — DOP invariance is the tested
// contract.
func BenchmarkE24FusedPipeline(b *testing.B) {
	const n = 1 << 20
	model := energy.DefaultModel()
	arms, err := experiments.E24BenchArms(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range arms {
		for _, path := range []struct {
			name string
			node exec.Node
		}{{"fused", arm.Fused}, {"unfused", arm.Unfused}} {
			b.Run(arm.Name+"/"+path.name, func(b *testing.B) {
				b.SetBytes(n * 8)
				var work energy.Counters
				for i := 0; i < b.N; i++ {
					ctx := exec.NewCtx()
					ctx.Lease = exec.NewLease(2)
					rel, err := path.node.Run(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if rel.N == 0 {
						b.Fatal("fused pipeline produced no rows")
					}
					work = ctx.Meter.Snapshot()
				}
				j := model.DynamicEnergy(work, model.Core.MaxPState()).Total()
				b.ReportMetric(float64(j), "J/op")
				b.ReportMetric(float64(work.BytesReadDRAM), "bytes-touched/op")
			})
		}
	}
}

// BenchmarkE25ShardedScan runs the E25 value-range-sharding sweep:
// skewed point probe over the flat layout and over 1/4/16 shards (byte
// identity enforced inside the sweep).  bytes-touched/op and J/op report
// the finest cut's probe — what zone pruning plus narrower per-shard
// packing buy over the flat scan.  Both are deterministic simulated-model
// metrics, so the CI bench gate diffs them against the committed
// baseline; wall times on the 1-CPU runner measure the code path, never
// parallel speedup.
func BenchmarkE25ShardedScan(b *testing.B) {
	var res *experiments.E25Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.E25Sweep(1<<18, []int{1, 4, 16}, []int{2})
		if err != nil {
			b.Fatal(err)
		}
	}
	r := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(r.BytesTouched), "bytes-touched/op")
	b.ReportMetric(float64(r.J), "J/op")
}

// BenchmarkScheduler measures the discrete-event machine simulator under
// E1/E5 (internal/experiments/coresim).
func BenchmarkScheduler(b *testing.B) {
	model := energy.DefaultModel()
	jobs := coresim.MakeJobs(synth.Poisson(9, 2000, 500),
		energy.Counters{Instructions: 5_000_000, BytesReadDRAM: 1 << 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coresim.Simulate(coresim.Config{Cores: 16, Model: model, Policy: coresim.RaceToIdle, MemGB: 32}, jobs)
	}
}
