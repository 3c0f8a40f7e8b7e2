package exec

import (
	"fmt"
	"testing"

	"repro/internal/colstore"
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
// each beside COUNT(*) — at 10% and 100% selectivity on day, over a
// sealed 1 Mi-row orders table generated like the benchmark's (custkeys
// Zipf(1.1) over rows/100+10 customers), at DOP 1.  It reports
// wall-clock ns per input row and is never gated.
func BenchmarkFusedAgg(b *testing.B) {
	const n = 1 << 20
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
	must(b, tab.Seal())
	for _, sel := range []float64{0.10, 1.00} {
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

// BenchmarkFusedProbeAgg is the operator rung under the join_dim
// workload: its two statements — SELECT segment, COUNT(*), SUM(day) FROM
// orders JOIN customers ON custkey = ckey GROUP BY segment, unfiltered
// and with tier = t — over a sealed 1 Mi-row orders table generated like
// the benchmark's and its 10 495-row customers dimension, at DOP 1.  It
// reports wall-clock ns per probe row and is never gated.
func BenchmarkFusedProbeAgg(b *testing.B) {
	const n = 1 << 20
	const nCust = n/100 + 10
	o := workload.GenOrders(42, n, nCust, 1.1)
	orders := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "day", Type: colstore.Int64},
	})
	must(b, orders.Writer().Int64("custkey", o.CustKey...).Int64("day", o.OrderDay...).Close())
	must(b, orders.Seal())
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"}
	ckey, segment, tier := make([]int64, nCust), make([]string, nCust), make([]int64, nCust)
	rng := workload.NewRNG(42 ^ 0xC0575EED)
	for i := range ckey {
		ckey[i], segment[i], tier[i] = int64(i), segments[rng.Intn(len(segments))], int64(rng.Intn(10))
	}
	customers := colstore.NewTable("customers", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
		{Name: "tier", Type: colstore.Int64},
	})
	must(b, customers.Writer().Int64("ckey", ckey...).String("segment", segment...).Int64("tier", tier...).Close())
	must(b, customers.Seal())
	for _, stmt := range []struct {
		name  string
		preds []expr.Pred
	}{{"unfiltered", nil}, {"tier=3", []expr.Pred{{Col: "tier", Op: vec.EQ, Val: expr.IntVal(3)}}}} {
		name, preds := stmt.name, stmt.preds
		a := &HashAgg{GroupBy: []string{"segment"},
			Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "day"}},
			Child: &Join{LeftKey: "custkey", RightKey: "ckey",
				Left:  &Scan{Source: orders, Select: []string{"custkey", "day"}},
				Right: &Scan{Source: customers, Select: []string{"ckey", "segment"}, Preds: preds}}}
		if a.fusion() != "fused probe→agg" {
			b.Fatalf("%s: the join does not fold its matches", name)
		}
		b.Run(name, func(b *testing.B) {
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
