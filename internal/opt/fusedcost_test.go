package opt

import (
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vec"
)

// TestFusedAggEstimateIsMeter: the planner prices a scan-fed aggregation
// window by window as the executor runs it (exec.FusedAggWork).  The
// fixture is a sealed orders table of three morsel windows: segment 0
// keeps a complete custkey synopsis (40 keys), segments 1 and 2 partial
// ones (keys 0–2 on a quarter of the rows, the rest on few rows), and day
// ascends 256 rows a day, so day <= 255 ends exactly at the segment
// boundary and day <= 300 cuts segment 1.  Statements read a heavy key,
// a key missing from segment 0's complete synopsis, a light key, the two
// day cuts and a day bound past every row, grouped by nothing or by
// custkey; the table is sealed,
// has a live delta on the last window, or has one tombstone in segment 0.
// For every cell:
//
//   - the estimate's per-window split is the fixture's: a window folds
//     exactly when it is one sealed segment with no tombstone whose
//     synopsis holds the key (or is complete), or whose rows the day
//     zone maps prove all selected;
//   - a plan all of whose windows fold has Est.Work equal to the Meter
//     of its run, agg-merge included;
//   - a streamed window's scan term (the scan kernels pricing it on a
//     nil selection) is the counters the kernels book running it, all
//     but the matches the run finds.
func TestFusedAggEstimateIsMeter(t *testing.T) {
	const n = 2*exec.MorselRows + 5000
	cust := func(i int) int64 {
		switch {
		case i < exec.MorselRows:
			return int64(i % 40)
		case i%4 == 0:
			return int64(i/4) % 3
		}
		return int64(100 + i%5000)
	}
	row := func(i int) []any { return []any{cust(i), float64(i%977) + 0.5, int64(i / 256)} }
	eq := func(k int64) []expr.Pred { return []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(k)}} }
	day := func(d int64) []expr.Pred { return []expr.Pred{{Col: "day", Op: vec.LE, Val: expr.IntVal(d)}} }
	cells := []struct {
		name    string
		preds   []expr.Pred
		groupBy []string
		folds   []bool // sealed
	}{
		{"heavy", eq(1), nil, []bool{true, true, true}},
		{"heavy/by", eq(2), []string{"custkey"}, []bool{true, true, true}},
		{"missing", eq(-5), nil, []bool{true, false, false}},
		{"light", eq(cust(exec.MorselRows + 1)), nil, []bool{true, false, false}},
		{"boundary", day(255), nil, []bool{true, false, false}},
		{"mid", day(300), nil, []bool{true, false, false}},
		{"mid/by", day(300), []string{"custkey"}, []bool{true, false, false}},
		{"all", day(1 << 20), nil, []bool{true, true, true}},
	}
	cm := NewCostModel(energy.DefaultModel())
	for _, state := range []string{"sealed", "live", "tombstone"} {
		tab := colstore.NewTable("orders", colstore.Schema{
			{Name: "custkey", Type: colstore.Int64},
			{Name: "amount", Type: colstore.Float64},
			{Name: "day", Type: colstore.Int64},
		})
		w := tab.Writer()
		for i := 0; i < n; i++ {
			w.Row(row(i)...)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Merge(0); err != nil {
			t.Fatal(err)
		}
		ts := tab.LastTS()
		switch state {
		case "live":
			for i := n; i < n+100; i++ {
				ts++
				if _, err := tab.ApplyInsert(ts, uint64(ts), row(i)...); err != nil {
					t.Fatal(err)
				}
			}
		case "tombstone":
			if err := tab.ApplyDelete(ts+1, 1, tab.RowID(5)); err != nil {
				t.Fatal(err)
			}
		}
		cat := NewCatalog()
		cat.Add(tab)
		for _, c := range cells {
			name := state + "/" + c.name
			want := slices.Clone(c.folds)
			switch state {
			case "live":
				want[2] = false
			case "tombstone":
				want[0] = false
			}
			q := &Query{From: "orders", Preds: c.preds, GroupBy: c.groupBy,
				Select: []SelectItem{{Agg: expr.AggCount, As: "n"}, {Agg: expr.AggSum, Col: "amount", As: "s"}}}
			if c.groupBy != nil {
				q.Select = append(q.Select, SelectItem{Col: "custkey"})
			}
			node, info, err := cat.Plan(q, cm)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			agg := node.(*exec.HashAgg)
			scan := agg.Child.(*exec.Scan)
			est, folded, ok := exec.FusedAggWork(scan, agg.GroupBy, agg.Aggs, 0.01, 100)
			if !ok || !info.FusedAgg {
				t.Fatalf("%s: not priced as a fused aggregation", name)
			}
			if !slices.Equal(folded, want) {
				t.Errorf("%s: estimate folds windows %v, want %v", name, folded, want)
			}
			ctx := exec.NewCtx()
			if _, err := node.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if meter := ctx.Meter.Snapshot(); !slices.Contains(want, false) {
				if info.Est.Work != meter || est != meter {
					t.Errorf("%s: every window folds, yet Est.Work %+v (FusedAggWork %+v) is not the Meter %+v",
						name, info.Est.Work, est, meter)
				}
			}
			b, err := scan.Bind()
			if err != nil {
				t.Fatal(err)
			}
			rows := tab.RowsAsOf(0)
			for m, lo := 0, 0; lo < rows; m, lo = m+1, lo+exec.MorselRows {
				hi := min(lo+exec.MorselRows, rows)
				if want[m] {
					continue
				}
				priced := b.Filter(0, lo, hi, nil, nil)
				var sel, scratch vec.Bitvec
				ran := b.Filter(0, lo, hi, &sel, &scratch)
				priced.TuplesOut, ran.TuplesOut = 0, 0
				if priced != ran {
					t.Errorf("%s: streamed window %d priced %+v, its kernels book %+v", name, m, priced, ran)
				}
			}
		}
	}
}
