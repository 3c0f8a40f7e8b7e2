package colstore

import (
	"testing"

	"repro/internal/workload"
)

// mergeOrders returns the sealed 1 Mi-row orders table (workload.GenOrders,
// seed 42, the served demo schema) with a live delta of `inserts` committed
// rows and `deletes` tombstones, one every len/deletes rows: the state a
// rebuild merge of mixed_rw starts from.
func mergeOrders(tb testing.TB, o *workload.Orders, inserts, deletes int) *Table {
	tb.Helper()
	n := len(o.OrderID)
	t := NewTable("orders", Schema{
		{Name: "id", Type: Int64},
		{Name: "custkey", Type: Int64},
		{Name: "region", Type: String},
		{Name: "amount", Type: Float64},
		{Name: "day", Type: Int64},
	})
	regions := make([]string, n)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	err := t.Writer().Int64("id", o.OrderID...).Int64("custkey", o.CustKey...).
		String("region", regions...).Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).Close()
	if err == nil {
		err = t.Seal()
	}
	ts := int64(0)
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
