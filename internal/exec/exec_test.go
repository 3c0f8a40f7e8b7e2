package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// ordersTable builds a small sealed orders table for operator tests.
func ordersTable(t testing.TB, n int) *colstore.Table {
	t.Helper()
	o := workload.GenOrders(42, n, 100, 1.1)
	tab := colstore.NewTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	regions := make([]string, n)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	must(t, tab.Writer().
		Int64("id", o.OrderID...).
		Int64("custkey", o.CustKey...).
		String("region", regions...).
		Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).
		Close())
	mustMerge(t, tab)
	return tab
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// mustMerge moves a loaded table's delta into the main.
func mustMerge(t testing.TB, tab *colstore.Table) {
	t.Helper()
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
}

func TestScanFullWithIntPredicate(t *testing.T) {
	tab := ordersTable(t, 5000)
	ctx := NewCtx()
	scan := &Scan{Source: tab, Select: []string{"id", "custkey"},
		Preds: []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(10)}}}
	rel, err := scan.Run(ctx)
	must(t, err)
	ck, err := tab.IntCol("custkey")
	must(t, err)
	want := 0
	for i := 0; i < tab.Rows(); i++ {
		if ck.Get(i) < 10 {
			want++
		}
	}
	if rel.N != want {
		t.Fatalf("scan matched %d rows, want %d", rel.N, want)
	}
	c, err := rel.Col("custkey")
	must(t, err)
	for _, v := range c.I {
		if v >= 10 {
			t.Fatal("predicate violated in output")
		}
	}
	if ctx.Meter.Snapshot() == (energy.Counters{}) {
		t.Error("scan must record work")
	}
}

func TestScanStringAndFloatPredicates(t *testing.T) {
	tab := ordersTable(t, 3000)
	ctx := NewCtx()
	scan := &Scan{Source: tab, Preds: []expr.Pred{
		{Col: "region", Op: vec.EQ, Val: expr.StrVal("ASIA")},
		{Col: "amount", Op: vec.GT, Val: expr.FloatVal(5000)},
	}}
	rel, err := scan.Run(ctx)
	must(t, err)
	rc, _ := rel.Col("region")
	ac, _ := rel.Col("amount")
	for i := 0; i < rel.N; i++ {
		if rc.Str(i) != "ASIA" || ac.F[i] <= 5000 {
			t.Fatal("conjunction violated")
		}
	}
	if rel.N == 0 {
		t.Fatal("expected some matches")
	}
}

func TestFilterProjectLimit(t *testing.T) {
	tab := ordersTable(t, 2000)
	plan := &Limit{N: 5, Child: &Project{Names: []string{"id", "amount"},
		Child: &Scan{Source: tab, Preds: []expr.Pred{{Col: "amount", Op: vec.LT, Val: expr.FloatVal(100)}}}}}
	rel, err := plan.Run(NewCtx())
	must(t, err)
	if rel.N > 5 || len(rel.Cols) != 2 {
		t.Fatalf("got %d rows, %d cols", rel.N, len(rel.Cols))
	}
	ac, _ := rel.Col("amount")
	for _, v := range ac.F {
		if v >= 100 {
			t.Fatal("filter violated")
		}
	}
}

func TestSortOrders(t *testing.T) {
	tab := ordersTable(t, 1000)
	plan := &Sort{Keys: []expr.SortKey{{Col: "region"}, {Col: "amount", Desc: true}},
		Child: &Scan{Source: tab, Select: []string{"region", "amount"}}}
	rel, err := plan.Run(NewCtx())
	must(t, err)
	rc, _ := rel.Col("region")
	ac, _ := rel.Col("amount")
	for i := 1; i < rel.N; i++ {
		if rc.Str(i) < rc.Str(i-1) {
			t.Fatal("primary sort key violated")
		}
		if rc.Str(i) == rc.Str(i-1) && ac.F[i] > ac.F[i-1] {
			t.Fatal("secondary (desc) sort key violated")
		}
	}
}

// TestSortFloatTotalOrder: a DOUBLE key sorts in MIN/MAX's total order,
// −Inf < … < −0 < +0 < … < +Inf < NaN, so the output is the same whatever
// order the rows arrive in — a NaN between two numbers must not pin them
// in input order, and −0 and +0 do not tie.
func TestSortFloatTotalOrder(t *testing.T) {
	nan, inf, neg0 := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, in := range [][]float64{
		{2.5, nan, -inf, 0, 1.5, neg0, inf},
		{nan, 0, 2.5, inf, neg0, 1.5, -inf},
		{inf, 1.5, neg0, 2.5, -inf, 0, nan},
	} {
		for _, desc := range []bool{false, true} {
			rel, err := NewRelation(Col{Name: "g", Type: colstore.Float64, F: append([]float64(nil), in...)})
			must(t, err)
			out, err := (&Sort{Child: relNode{rel}, Keys: []expr.SortKey{{Col: "g", Desc: desc}}}).Run(NewCtx())
			must(t, err)
			var got []string
			for _, f := range out.Cols[0].F {
				got = append(got, fmt.Sprint(math.Signbit(f), f))
			}
			want := []string{"true -Inf", "true -0", "false 0", "false 1.5", "false 2.5", "false +Inf", "false NaN"}
			if desc {
				slices.Reverse(want)
			}
			if !slices.Equal(got, want) {
				t.Errorf("sort %v desc=%v: %v, want %v", in, desc, got, want)
			}
		}
	}
}

func TestHashAggGlobalAndGrouped(t *testing.T) {
	tab := ordersTable(t, 3000)
	// Global aggregate.
	g, err := (&HashAgg{
		Aggs:  []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "amount", As: "total"}},
		Child: &Scan{Source: tab},
	}).Run(NewCtx())
	must(t, err)
	if g.N != 1 {
		t.Fatalf("global agg returned %d rows", g.N)
	}
	cnt, _ := g.Col("count")
	if cnt.I[0] != 3000 {
		t.Fatalf("count = %d", cnt.I[0])
	}
	amc, _ := tab.Column("amount")
	am := amc.(*colstore.FloatColumn)
	var want float64
	for _, v := range am.Values() {
		want += v
	}
	tot, _ := g.Col("total")
	if math.Abs(tot.F[0]-want) > 1e-6*want {
		t.Fatalf("sum = %g want %g", tot.F[0], want)
	}

	// Grouped aggregate: per-region sums must add up to the global sum.
	byRegion, err := (&HashAgg{
		GroupBy: []string{"region"},
		Aggs: []expr.AggSpec{
			{Func: expr.AggSum, Col: "amount", As: "total"},
			{Func: expr.AggMin, Col: "amount", As: "lo"},
			{Func: expr.AggMax, Col: "amount", As: "hi"},
			{Func: expr.AggAvg, Col: "amount", As: "mean"},
		},
		Child: &Scan{Source: tab},
	}).Run(NewCtx())
	must(t, err)
	if byRegion.N == 0 || byRegion.N > len(workload.RegionNames) {
		t.Fatalf("grouped agg returned %d rows", byRegion.N)
	}
	tc, _ := byRegion.Col("total")
	var sum float64
	for _, v := range tc.F {
		sum += v
	}
	if math.Abs(sum-want) > 1e-6*want {
		t.Fatalf("group sums %g != global %g", sum, want)
	}
	lo, _ := byRegion.Col("lo")
	hi, _ := byRegion.Col("hi")
	mean, _ := byRegion.Col("mean")
	for i := 0; i < byRegion.N; i++ {
		if !(lo.F[i] <= mean.F[i] && mean.F[i] <= hi.F[i]) {
			t.Fatal("min <= avg <= max violated")
		}
	}
}

func TestAggIntSumStaysInt(t *testing.T) {
	tab := ordersTable(t, 100)
	rel, err := (&HashAgg{
		Aggs:  []expr.AggSpec{{Func: expr.AggSum, Col: "custkey", As: "s"}, {Func: expr.AggMax, Col: "day", As: "d"}},
		Child: &Scan{Source: tab},
	}).Run(NewCtx())
	must(t, err)
	s, _ := rel.Col("s")
	d, _ := rel.Col("d")
	if s.Type != colstore.Int64 || d.Type != colstore.Int64 {
		t.Fatal("integer aggregates must stay BIGINT")
	}
}

func TestJoin(t *testing.T) {
	orders := ordersTable(t, 2000)
	// Customer dimension: custkey -> segment string.
	cust := colstore.NewTable("customer", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
	})
	for k := 0; k < 100; k++ {
		seg := "RETAIL"
		if k%3 == 0 {
			seg = "WHOLESALE"
		}
		must(t, cust.Writer().Row(int64(k), seg).Close())
	}
	mustMerge(t, cust)
	join := &Join{
		Left:     &Scan{Source: orders, Select: []string{"id", "custkey", "amount"}},
		Right:    &Scan{Source: cust},
		LeftKey:  "custkey",
		RightKey: "custkey",
	}
	rel, err := join.Run(NewCtx())
	must(t, err)
	if rel.N != 2000 {
		t.Fatalf("join produced %d rows, want 2000 (FK join)", rel.N)
	}
	seg, err := rel.Col("segment")
	must(t, err)
	ck, _ := rel.Col("custkey")
	for i := 0; i < rel.N; i++ {
		want := "RETAIL"
		if ck.I[i]%3 == 0 {
			want = "WHOLESALE"
		}
		if seg.Str(i) != want {
			t.Fatalf("row %d: segment %q for custkey %d", i, seg.Str(i), ck.I[i])
		}
	}
}

func TestJoinThenAggregatePipeline(t *testing.T) {
	orders := ordersTable(t, 3000)
	cust := colstore.NewTable("customer", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
	})
	for k := 0; k < 100; k++ {
		seg := "RETAIL"
		if k%3 == 0 {
			seg = "WHOLESALE"
		}
		must(t, cust.Writer().Row(int64(k), seg).Close())
	}
	mustMerge(t, cust)
	plan := &Sort{Keys: []expr.SortKey{{Col: "segment"}},
		Child: &HashAgg{GroupBy: []string{"segment"},
			Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "amount", As: "rev"}, {Func: expr.AggCount, As: "n"}},
			Child: &Join{
				Left:    &Scan{Source: orders, Select: []string{"custkey", "amount"}},
				Right:   &Scan{Source: cust},
				LeftKey: "custkey", RightKey: "custkey",
			}}}
	rel, err := plan.Run(NewCtx())
	must(t, err)
	if rel.N != 2 {
		t.Fatalf("expected 2 segments, got %d", rel.N)
	}
	nc, _ := rel.Col("n")
	if nc.I[0]+nc.I[1] != 3000 {
		t.Fatal("group counts must cover all rows")
	}
}

func TestExplainTree(t *testing.T) {
	tab := ordersTable(t, 10)
	plan := &Limit{N: 1, Child: &Scan{Source: tab}}
	out := Explain(plan)
	if !strings.Contains(out, "Limit(1)") || !strings.Contains(out, "Scan(orders)") {
		t.Fatalf("explain output missing nodes:\n%s", out)
	}
	if !strings.HasPrefix(strings.Split(out, "\n")[1], "  ") {
		t.Error("children must be indented")
	}
}

func TestRelationValidation(t *testing.T) {
	_, err := NewRelation(
		Col{Name: "a", Type: colstore.Int64, I: []int64{1, 2}},
		Col{Name: "b", Type: colstore.Float64, F: []float64{1}},
	)
	if err == nil {
		t.Fatal("ragged relation must fail")
	}
	r, err := NewRelation(Col{Name: "a", Type: colstore.Int64, I: []int64{1, 2}})
	must(t, err)
	if r.N != 2 || r.ColNames()[0] != "a" {
		t.Fatal("relation metadata wrong")
	}
	if _, err := r.Col("zzz"); err == nil {
		t.Fatal("unknown column must error")
	}
	row := r.Row(1)
	if row[0].(int64) != 2 {
		t.Fatal("Row accessor broken")
	}
}

func TestScanErrorsOnTypeMismatch(t *testing.T) {
	tab := ordersTable(t, 10)
	_, err := (&Scan{Source: tab, Preds: []expr.Pred{{Col: "amount", Op: vec.LT, Val: expr.IntVal(3)}}}).Run(NewCtx())
	if err == nil {
		t.Fatal("int predicate on DOUBLE column must error")
	}
	_, err = (&Scan{Source: tab, Preds: []expr.Pred{{Col: "ghost", Op: vec.LT, Val: expr.IntVal(3)}}}).Run(NewCtx())
	if err == nil {
		t.Fatal("unknown column must error")
	}
}
