package exec

import (
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// BenchmarkOperators measures the core physical operators end to end.
func BenchmarkOperators(b *testing.B) {
	tab := ordersTable(b, 200_000)
	b.Run("scan-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &Scan{Source: tab, Select: []string{"id"},
				Preds: []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(10)}}}
			if _, err := s.Run(NewCtx()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agg-group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &HashAgg{GroupBy: []string{"region"},
				Aggs:  []expr.AggSpec{{Func: expr.AggSum, Col: "amount", As: "rev"}},
				Child: &Scan{Source: tab, Select: []string{"region", "amount"}}}
			if _, err := a.Run(NewCtx()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &Sort{Keys: []expr.SortKey{{Col: "amount", Desc: true}},
				Child: &Scan{Source: tab, Select: []string{"amount"}}}
			if _, err := s.Run(NewCtx()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFusedAgg is the operator rung under the scan_agg workload: its
// four fused shapes — GROUP BY {region, custkey} × SUM {day, amount},
// each beside COUNT(*) — at 1%, 10% and 100% selectivity on day, over a
// sealed 1 Mi-row orders table generated like the benchmark's (custkeys
// Zipf(1.1) over rows/100+10 customers), at DOP 1.  It reports
// wall-clock ns per input row and is never gated.  Every segment below
// the day bound is fully qualified: a region row folds those segments
// from their synopses (region has 5 values), a custkey row streams them
// (custkey has thousands per segment), so the two attribute the
// synopsis feeder.
func BenchmarkFusedAgg(b *testing.B) {
	const n = 1 << 20
	o, tab := benchOrders(b, n)
	for _, sel := range []float64{0.01, 0.10, 1.00} {
		day := o.OrderDay[int(sel*n)-1] // day ascends with the row
		for _, g := range []string{"region", "custkey"} {
			for _, v := range []string{"day", "amount"} {
				a := &HashAgg{GroupBy: []string{g},
					Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: v}},
					Child: &Scan{Source: tab, Select: []string{g, v},
						Preds: []expr.Pred{{Col: "day", Op: vec.LE, Val: expr.IntVal(day)}}}}
				if a.fusion() != "fused" {
					b.Fatalf("GROUP BY %s SUM(%s) is not scan-fed", g, v)
				}
				b.Run(fmt.Sprintf("%s/sum=%s/sel=%.0f%%", g, v, sel*100), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ctx := NewCtx()
						ctx.Lease = NewLease(1)
						if _, err := a.Run(ctx); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
				})
			}
		}
	}
}

// benchOrders is the sealed n-row orders table of the scan rungs,
// generated like the benchmark's: custkeys Zipf(1.1) over n/100+10
// customers, day ascending with the row.
func benchOrders(b *testing.B, n int) (*workload.Orders, *colstore.Table) {
	o := workload.GenOrders(42, n, n/100+10, 1.1)
	tab := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	regions := make([]string, n)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	must(b, tab.Writer().Int64("custkey", o.CustKey...).String("region", regions...).
		Float64("amount", o.Amount...).Int64("day", o.OrderDay...).Close())
	mustMerge(b, tab)
	return o, tab
}

// BenchmarkPointAgg is the operator rung under the point_hot workload:
// SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = k over
// BenchmarkFusedAgg's sealed 1 Mi-row orders, at DOP 1, for a heavy key
// (0, on about a ninth of every segment's rows), a light one (39, on too
// few rows of any segment to be kept in its partial synopsis), an absent
// one, and the heavy key once every segment holds a tombstone.  Every
// segment answers the heavy key from its synopsis; the light and absent
// keys and the tombstoned segments stream, through the selection-bit
// fold.  It reports wall-clock ns/op beside the deterministic
// bytes-touched/op (DRAM bytes read and written), and is never gated.
func BenchmarkPointAgg(b *testing.B) {
	const n = 1 << 20
	_, tab := benchOrders(b, n)
	stmt := func(k int64) *HashAgg {
		return &HashAgg{Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "amount"}},
			Child: &Scan{Source: tab, Select: []string{"custkey", "amount"},
				Preds: []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(k)}}}}
	}
	run := func(name string, k int64) {
		a := stmt(k)
		if a.fusion() != "fused" {
			b.Fatalf("custkey = %d is not scan-fed", k)
		}
		b.Run(name, func(b *testing.B) {
			var work energy.Counters
			for i := 0; i < b.N; i++ {
				ctx := NewCtx()
				ctx.Lease = NewLease(1)
				if _, err := a.Run(ctx); err != nil {
					b.Fatal(err)
				}
				work = ctx.Meter.Snapshot()
			}
			b.ReportMetric(float64(work.BytesReadDRAM+work.BytesWrittenDRAM), "bytes-touched/op")
		})
	}
	run("heavy", 0)
	run("light", 39)
	run("absent", -1)
	for lo := 0; lo < n; lo += MorselRows {
		must(b, tab.ApplyDelete(tab.LastTS()+1, uint64(lo+1), tab.RowID(lo)))
	}
	run("heavy-tombstoned", 0)
}

// BenchmarkFusedProbeAgg is the operator rung under the join_dim
// workload: its two statements — SELECT segment, COUNT(*), SUM(day) FROM
// orders JOIN customers ON custkey = ckey GROUP BY segment, unfiltered
// and with tier = t — the unfiltered join grouped by the probe-side
// region instead, and a join on duplicate keys (two customers per pair)
// probed by uniform keys, so each row looks its key up, grouped by the
// BIGINT tier, over a sealed 1 Mi-row orders table generated like the
// benchmark's and its 10 495-row customers dimension, at DOP 1.  A
// build-side group resolves each unique key's rows straight to its fold
// group in the window pass; a probe-side group or a duplicate key folds
// match by match.  It reports wall-clock ns per probe row beside the
// pass's deterministic lookups and matches per probe row, and is never
// gated.
func BenchmarkFusedProbeAgg(b *testing.B) {
	const n = 1 << 20
	const nCust = n/100 + 10
	o := workload.GenOrders(42, n, nCust, 1.1)
	regions := make([]string, n)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	rkey := make([]int64, n) // uniform keys: bitpacked, so each row looks up
	rng := workload.NewRNG(7)
	for i := range rkey {
		rkey[i] = int64(rng.Intn(nCust))
	}
	orders := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "rkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "day", Type: colstore.Int64},
	})
	must(b, orders.Writer().Int64("custkey", o.CustKey...).Int64("rkey", rkey...).String("region", regions...).Int64("day", o.OrderDay...).Close())
	mustMerge(b, orders)
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"}
	ckey, pair, segment, tier := make([]int64, nCust), make([]int64, nCust), make([]string, nCust), make([]int64, nCust)
	rng = workload.NewRNG(42 ^ 0xC0575EED)
	for i := range ckey {
		ckey[i], pair[i], segment[i], tier[i] = int64(i), int64(i/2), segments[rng.Intn(len(segments))], int64(rng.Intn(10))
	}
	customers := colstore.NewTable("customers", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "pair", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
		{Name: "tier", Type: colstore.Int64},
	})
	must(b, customers.Writer().Int64("ckey", ckey...).Int64("pair", pair...).String("segment", segment...).Int64("tier", tier...).Close())
	mustMerge(b, customers)
	for _, stmt := range []struct {
		name, probeKey, key, group string
		preds                      []expr.Pred
	}{
		{"unfiltered", "custkey", "ckey", "segment", nil},
		{"tier=3", "custkey", "ckey", "segment", []expr.Pred{{Col: "tier", Op: vec.EQ, Val: expr.IntVal(3)}}},
		{"probe-group", "custkey", "ckey", "region", nil},
		{"dup-keys", "rkey", "pair", "tier", nil},
	} {
		name := stmt.name
		a := &HashAgg{GroupBy: []string{stmt.group},
			Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "day"}},
			Child: &Join{LeftKey: stmt.probeKey, RightKey: stmt.key,
				Left:  &Scan{Source: orders, Select: []string{stmt.probeKey, "region", "day"}},
				Right: &Scan{Source: customers, Select: []string{stmt.key, "segment", "tier"}, Preds: stmt.preds}}}
		if a.fusion() != "fused probe→agg" {
			b.Fatalf("%s: the join does not fold its matches", name)
		}
		b.Run(name, func(b *testing.B) {
			var c *ProbeCounts
			for i := 0; i < b.N; i++ {
				ctx := NewCtx()
				ctx.Lease = NewLease(1)
				if _, err := a.Run(ctx); err != nil {
					b.Fatal(err)
				}
				for _, op := range ctx.OpReports {
					if op.Probe != nil {
						c = op.Probe
					}
				}
			}
			if c == nil {
				b.Fatalf("%s: no lookup phase in the trace", name)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			b.ReportMetric(float64(c.Keys)/n, "keys/row")
			b.ReportMetric(float64(c.Matches)/n, "matches/row")
		})
	}
}
