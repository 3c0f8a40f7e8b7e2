package exec

import (
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// buildOrdersLike constructs the standard orders-shaped table; sealed
// tables freeze every column into its advisor-chosen compressed segments,
// unsealed tables scan raw.  Same values either way.
func buildOrdersLike(t *testing.T, n int, seal bool) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "day", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
	})
	// custkey: low cardinality (dict segments); day: long runs (RLE
	// segments); region: dictionary strings; amount: raw floats.
	custkey := synth.UniformInts(31, n, 64)
	day := synth.RunsInts(32, n, 30, 500)
	regions := make([]string, n)
	for i := range regions {
		regions[i] = workload.RegionNames[int(custkey[i])%len(workload.RegionNames)]
	}
	amounts := make([]float64, n)
	for i := range amounts {
		amounts[i] = float64(day[i]%97) * 1.25
	}
	if err := tab.Writer().
		Int64("custkey", custkey...).
		Int64("day", day...).
		String("region", regions...).
		Float64("amount", amounts...).
		Close(); err != nil {
		t.Fatal(err)
	}
	if seal {
		if _, err := tab.Merge(0); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestCompressedStorageDOPInvariant is the acceptance test for the
// compressed-segment pipeline, run under -race by the CI race job: the
// same grouped aggregation over Scan must produce byte-identical
// relations and identical logical row counters (TuplesIn/TuplesOut)
// whether the table is stored raw or sealed into compressed segments, at
// DOP 1 and DOP 8 — while the sealed variant streams strictly fewer DRAM
// bytes.  Never wall clock: the build container has one CPU, so
// invariance, not speedup, is what can be asserted.
func TestCompressedStorageDOPInvariant(t *testing.T) {
	const n = 400_000 // several relation morsels post-filter
	rawTab := buildOrdersLike(t, n, false)
	compTab := buildOrdersLike(t, n, true)
	plan := func(tab *colstore.Table) *HashAgg {
		return &HashAgg{
			Child: &Scan{
				Source: tab,
				Select: []string{"region", "amount", "day"},
				Preds: []expr.Pred{
					{Col: "custkey", Op: vec.LT, Val: expr.IntVal(52)},
					{Col: "day", Op: vec.GE, Val: expr.IntVal(2)},
				},
			},
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "amount", As: "rev"},
				{Func: expr.AggCount, As: "cnt"},
			},
		}
	}

	type run struct {
		rel *Relation
		ctx *Ctx
	}
	runs := map[string]map[int]run{"raw": {}, "compressed": {}}
	for name, tab := range map[string]*colstore.Table{"raw": rawTab, "compressed": compTab} {
		for _, dop := range []int{1, 8} {
			rel, ctx := runPlan(t, plan(tab), dop)
			runs[name][dop] = run{rel, ctx}
		}
	}

	// DOP invariance within each storage format: full counters equal.
	for name, byDOP := range runs {
		if !reflect.DeepEqual(byDOP[1].rel, byDOP[8].rel) {
			t.Errorf("%s: relations differ between DOP 1 and 8", name)
		}
		w1, w8 := byDOP[1].ctx.Meter.Snapshot(), byDOP[8].ctx.Meter.Snapshot()
		if w1 != w8 {
			t.Errorf("%s: counters differ between DOP 1 and 8:\n%+v\n%+v", name, w1, w8)
		}
	}

	// Storage invariance: byte-identical relations and identical logical
	// row counters between raw and compressed, at every DOP.
	for _, dop := range []int{1, 8} {
		r, c := runs["raw"][dop], runs["compressed"][dop]
		if r.rel.N == 0 {
			t.Fatal("aggregation produced no groups")
		}
		if !r.rel.Equal(c.rel) {
			t.Errorf("DOP %d: compressed relation diverges from raw", dop)
		}
		wr, wc := r.ctx.Meter.Snapshot(), c.ctx.Meter.Snapshot()
		if wr.TuplesIn != wc.TuplesIn || wr.TuplesOut != wc.TuplesOut {
			t.Errorf("DOP %d: row counters diverge: raw in/out %d/%d, compressed %d/%d",
				dop, wr.TuplesIn, wr.TuplesOut, wc.TuplesIn, wc.TuplesOut)
		}
		// The energy claim: the sealed table moves strictly fewer bytes.
		if wc.BytesReadDRAM >= wr.BytesReadDRAM {
			t.Errorf("DOP %d: compressed scan must stream fewer bytes: %d vs %d",
				dop, wc.BytesReadDRAM, wr.BytesReadDRAM)
		}
	}
}
