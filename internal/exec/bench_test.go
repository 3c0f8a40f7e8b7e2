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
			s := &Scan{Source: colstore.OneShard(tab), Select: []string{"id"},
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
				Child: &Scan{Source: colstore.OneShard(tab), Select: []string{"region", "amount"}}}
			if _, err := a.Run(NewCtx()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &Sort{Keys: []expr.SortKey{{Col: "amount", Desc: true}},
				Child: &Scan{Source: colstore.OneShard(tab), Select: []string{"amount"}}}
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
					Child: &Scan{Source: colstore.OneShard(tab), Select: []string{g, v},
						Preds: []expr.Pred{{Col: "day", Op: vec.LE, Val: expr.IntVal(day)}}}}
				if a.fusion() != "fused" {
					b.Fatalf("GROUP BY %s SUM(%s) is not shard-fed", g, v)
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
