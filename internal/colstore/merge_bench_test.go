package colstore

import (
	"testing"

	"repro/internal/workload"
)

// loadOrders commits o (the served demo schema) to a fresh table's delta
// through one Writer and merges it into the main: a bulk load and
// Engine.Seal, without the statistics.
func loadOrders(o *workload.Orders) (*Table, error) {
	t := NewTable("orders", Schema{
		{Name: "id", Type: Int64},
		{Name: "custkey", Type: Int64},
		{Name: "region", Type: String},
		{Name: "amount", Type: Float64},
		{Name: "day", Type: Int64},
	})
	regions := make([]string, len(o.Region))
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	err := t.Writer().Int64("id", o.OrderID...).Int64("custkey", o.CustKey...).
		String("region", regions...).Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).Close()
	if err == nil {
		_, err = t.Merge(0)
	}
	return t, err
}

// mergeOrders returns the sealed 1 Mi-row orders table (workload.GenOrders,
// seed 42) with a live delta of `inserts` committed rows and `deletes`
// tombstones, one every len/deletes rows: the state a rebuild merge of
// mixed_rw starts from.
func mergeOrders(tb testing.TB, o *workload.Orders, inserts, deletes int) *Table {
	tb.Helper()
	n := len(o.OrderID)
	t, err := loadOrders(o)
	ts := t.lastTS
	for i := 0; i < inserts && err == nil; i++ {
		ts++
		_, err = t.ApplyInsert(ts, 0, int64(n+1+i), int64(i%40), workload.RegionNames[i%5], 1.5, o.OrderDay[n-1])
	}
	for i := 0; i < deletes && err == nil; i++ {
		ts++
		err = t.ApplyDelete(ts, 0, int64(i*(n/deletes)+7))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// BenchmarkLoad is the load rung of the layer ladder, beside
// BenchmarkMergeRebuild: 1 Mi orders staged through one Writer,
// committed to the delta and merged into the main — what a bulk load
// and Engine.Seal cost before the statistics.
func BenchmarkLoad(b *testing.B) {
	o := workload.GenOrders(42, 1<<20, 10495, 1.1)
	for i := 0; i < b.N; i++ {
		if _, err := loadOrders(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeRebuild is the merge rung of the layer ladder: one
// rebuild merge (tombstones to drop) of the 1 Mi-row orders table with
// 128 delta rows and 32 tombstones — the maintenance a mixed_rw write
// burst triggers under the exclusive data latch.
func BenchmarkMergeRebuild(b *testing.B) {
	o := workload.GenOrders(42, 1<<20, 10495, 1.1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := mergeOrders(b, o, 128, 32)
		b.StartTimer()
		st, err := t.Merge(0)
		if err != nil || !st.Rebuilt || st.Dropped != 32 {
			b.Fatalf("merge: %+v, %v", st, err)
		}
	}
}
