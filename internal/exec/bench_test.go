package exec

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
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
