package exec

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// The synopsis axis of the aggregate matrices: a scan-fed morsel whose
// window is one sealed segment with every row selected, or with its one
// predicate an equality the segment's synopsis answers, folds from the
// segment's synopsis (colstore/synopsis.go), every other morsel streams
// its rows, and both answer with the bits the relation-fed pipeline and
// the map oracle answer with.

var synSchema = colstore.Schema{
	{Name: "g", Type: colstore.String}, // 5 values: a synopsis column
	{Name: "ik", Type: colstore.Int64}, // 7 values: a synopsis column
	{Name: "d", Type: colstore.Int64},  // ascending, the predicate's
	{Name: "iv", Type: colstore.Int64}, // near ±2^62: the sums wrap
	{Name: "fv", Type: colstore.Float64},
	{Name: "fx", Type: colstore.Float64}, // NaN and ±Inf in group ik = 6 only
	{Name: "pk", Type: colstore.Int64},   // 0, 1, 2 on a twelfth of the rows each, the rest distinct: a partial synopsis column
}

// synRow is logical row i of the synopsis matrix's table.  fv holds ±0,
// subnormals and values over forty binary orders of magnitude; fx holds
// fv's values except in group ik = 6, where NaN, +Inf and −Inf take turns
// with them.
func synRow(i int) []any {
	fv := math.Ldexp(float64((i*40503)%9973)+0.25, i%41-20)
	switch i % 23 {
	case 0:
		fv = math.Copysign(0, -1)
	case 1:
		fv = 0
	case 2:
		fv = math.SmallestNonzeroFloat64 * float64(i%5+1)
	case 3:
		fv = -math.SmallestNonzeroFloat64 * 3
	}
	fx := fv
	if ik := i % 7; ik == 6 {
		switch i % 5 {
		case 0:
			fx = math.NaN()
		case 1:
			fx = math.Inf(1)
		case 2:
			fx = math.Inf(-1)
		}
	}
	iv := int64(i*2654435761)%(1<<20)<<42 | int64(i)
	pk := int64(i + 10)
	if i%4 == 0 {
		pk = int64(i/4) % 3
	}
	return []any{workload.RegionNames[(i*13)%5], int64(i % 7), int64(i / 1000), iv, fv, fx, pk}
}

// synTable loads rows synRow(0..n-1) with one Writer batch, into the
// main when seal is set, into the delta otherwise.
func synTable(t *testing.T, n int, seal bool) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("s", synSchema)
	w := tab.Writer()
	for i := 0; i < n; i++ {
		w.Row(synRow(i)...)
	}
	must(t, w.Close())
	if seal {
		mustMerge(t, tab)
	}
	return tab
}

// synopsisWindows returns, per morsel of a scan-fed aggregation at
// snapshot snap, whether it folds from a synopsis.  A morsel that folds
// under an equality predicate must book the logical rows it books
// streamed.
func synopsisWindows(t *testing.T, a *HashAgg, snap int64) []bool {
	t.Helper()
	sf := a.scanFeed()
	if sf == nil {
		t.Fatal("not scan-fed")
	}
	var out []bool
	n := sf.scan.Table.RowsAsOf(snap)
	for lo := 0; lo < n; lo += MorselRows {
		hi := min(lo+MorselRows, n)
		sc := new(morselScratch)
		sel, _ := sf.scan.selectRows(snap, lo, hi, sc)
		syn, _ := sf.point(snap, lo, hi)
		if syn != nil {
			_, w := sf.morsel(snap, lo, hi)
			eq := sf.eqCol
			sf.eqCol = -1
			_, streamed := sf.morsel(snap, lo, hi)
			sf.eqCol = eq
			if w.TuplesIn != streamed.TuplesIn || w.TuplesOut != streamed.TuplesOut {
				t.Fatalf("morsel [%d, %d) books %d/%d tuples in/out from its synopsis, %d/%d streamed",
					lo, hi, w.TuplesIn, w.TuplesOut, streamed.TuplesIn, streamed.TuplesOut)
			}
		}
		out = append(out, syn != nil || sf.synopsis(sel.Count(), lo, hi) != nil)
	}
	return out
}

// TestSynopsisFoldMatchesStreamed: morsel 0 of a two-morsel table
// (a full segment, then a 300-row tail segment) is fully qualified, cut
// by the predicate (a boundary), holds a tombstone visible at the
// snapshot, or holds rows an old snapshot does not see; the table is
// sealed, has a live delta past the tail, or was merged after inserts and
// deletes; the aggregate is COUNT or SUM/AVG/MIN/MAX over a wrapping
// BIGINT, a DOUBLE with ±0 and subnormals, and a DOUBLE with NaN and
// ±Inf in one group; the GROUP BY is none, a string synopsis column, a
// BIGINT one, or a BIGINT column that keeps only partial synopses.  At DOP
// 1 and 8 every cell's relation equals the relation-fed pipeline's and the
// map oracle's, its counters do not depend on the DOP, and morsel 0 folds
// from its synopsis exactly when it is fully qualified and its GROUP BY
// column keeps a complete synopsis.
//
// The equality axis: the one predicate is instead col = v, for a heavy, a
// light and an absent v of a column with a complete synopsis (the string
// g, which holds every region about equally often) and of one with a
// partial synopsis (pk; light is on one row of segment 0, absent from its
// partial synopsis), grouped by nothing or by col,
// on the fully qualified, tombstoned and hidden tables above.  Morsel 0
// folds from its synopsis exactly when no row of it is hidden and the
// synopsis holds v or is complete, booking the logical rows it books
// streamed.
func TestSynopsisFoldMatchesStreamed(t *testing.T) {
	const base = MorselRows + 300
	cases := []string{"full", "boundary", "tombstoned", "hidden"}
	states := []string{"sealed", "live", "merged"}
	shapes := [][]string{nil, {"g"}, {"ik"}, {"pk"}} // pk keeps partial synopses only
	type aggSet struct {
		name string
		aggs []expr.AggSpec
	}
	aggs := []aggSet{
		{"count", []expr.AggSpec{{Func: expr.AggCount}}},
		{"bigint", []expr.AggSpec{{Func: expr.AggSum, Col: "iv"}, {Func: expr.AggAvg, Col: "iv"},
			{Func: expr.AggMin, Col: "iv"}, {Func: expr.AggMax, Col: "iv"}, {Func: expr.AggCount}}},
		{"double", []expr.AggSpec{{Func: expr.AggSum, Col: "fv"}, {Func: expr.AggAvg, Col: "fv"},
			{Func: expr.AggMin, Col: "fv"}, {Func: expr.AggMax, Col: "fv"}}},
		{"specials", []expr.AggSpec{{Func: expr.AggSum, Col: "fx"}, {Func: expr.AggMin, Col: "fx"},
			{Func: expr.AggMax, Col: "fx"}, {Func: expr.AggAvg, Col: "fx"}, {Func: expr.AggSum, Col: "d"}}},
	}
	// The one set of the equality axis and the pk grouping: every
	// accumulator kind at once.
	pointAggs := []aggSet{{"mixed", []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "iv"},
		{Func: expr.AggMin, Col: "fv"}, {Func: expr.AggMax, Col: "fx"}, {Func: expr.AggSum, Col: "fx"}, {Func: expr.AggAvg, Col: "d"}}}}
	exact := new(big.Int)
	for i := 0; i < base; i++ {
		exact.Add(exact, big.NewInt(synRow(i)[3].(int64)))
	}
	if exact.IsInt64() {
		t.Fatalf("SUM(iv) over the table is %v: it does not wrap", exact)
	}
	for _, state := range states {
		for _, cs := range cases {
			n := base
			if cs == "hidden" {
				n = MorselRows - 40 // 40 inserted rows complete segment 0
			}
			tab := synTable(t, n, cs != "hidden")
			ts, lsn := tab.LastTS(), uint64(0)
			commit := func(row int) {
				ts, lsn = ts+1, lsn+1
				_, err := tab.ApplyInsert(ts, lsn, synRow(row)...)
				must(t, err)
			}
			del := func(row int) {
				ts, lsn = ts+1, lsn+1
				must(t, tab.ApplyDelete(ts, lsn, tab.RowID(row)))
			}
			snap := int64(0) // the snapshot the cell reads at; 0 = the last commit
			if cs == "hidden" {
				for j := 0; j < 340; j++ {
					commit(n + j)
				}
				// Seals the load and the inserts, keeping the inserts'
				// visibility: segment 0 holds 40 rows snapshot 1 does not see.
				if _, err := tab.Merge(1); err != nil {
					t.Fatal(err)
				}
				snap = 1
			}
			switch state {
			case "live":
				for j := 0; j < 50; j++ {
					commit(base + 400 + j)
				}
			case "merged":
				for j := 0; j < 50; j++ {
					commit(base + 400 + j)
				}
				del(tab.Rows() - 1)
				if _, err := tab.Merge(snap); err != nil {
					t.Fatal(err)
				}
			}
			if cs == "tombstoned" {
				del(777)
			}
			if snap == 0 {
				snap = ts
			}
			preds := []expr.Pred{{Col: "d", Op: vec.LE, Val: expr.IntVal(1 << 40)}}
			if cs == "boundary" {
				preds[0].Val = expr.IntVal(40) // rows 0..40 999 of segment 0
			}
			type cell struct {
				name    string
				preds   []expr.Pred
				groupBy []string
				syn     bool // whether morsel 0 folds from its synopsis
				aggs    []aggSet
			}
			var cells []cell
			for _, groupBy := range shapes {
				partial := slices.Equal(groupBy, []string{"pk"})
				c := cell{fmt.Sprintf("%s/%s/%v", state, cs, groupBy), preds, groupBy, cs == "full" && !partial, aggs}
				if partial {
					c.aggs = pointAggs
				}
				cells = append(cells, c)
			}
			for _, eq := range []struct {
				col                  string
				partial              bool
				heavy, light, absent expr.Value
			}{
				{"g", false, expr.StrVal(workload.RegionNames[0]), expr.StrVal(workload.RegionNames[4]), expr.StrVal("ATLANTIS")},
				{"pk", true, expr.IntVal(1), expr.IntVal(13), expr.IntVal(-5)},
			} {
				for vi, v := range []expr.Value{eq.heavy, eq.light, eq.absent} {
					for _, groupBy := range [][]string{nil, {eq.col}} {
						if cs == "boundary" {
							continue
						}
						cells = append(cells, cell{fmt.Sprintf("%s/%s/%s=%v/%v", state, cs, eq.col, v, groupBy),
							[]expr.Pred{{Col: eq.col, Op: vec.EQ, Val: v}}, groupBy, cs == "full" && (!eq.partial || vi == 0), pointAggs})
					}
				}
			}
			for _, c := range cells {
				for _, ag := range c.aggs {
					name, preds, groupBy := c.name+"/"+ag.name, c.preds, c.groupBy
					scan := func() Node { return &Scan{Source: tab, Preds: preds} }
					a := &HashAgg{Child: scan(), GroupBy: groupBy, Aggs: ag.aggs}
					if got := synopsisWindows(t, a, snap)[0]; got != c.syn {
						t.Fatalf("%s: morsel 0 folds from its synopsis: %v", name, got)
					}
					run := func(n Node, dop int) (*Relation, *Ctx) {
						ctx := NewCtx()
						ctx.Lease, ctx.SnapTS = NewLease(dop), snap
						rel, err := n.Run(ctx)
						must(t, err)
						return rel, ctx
					}
					relFed, _ := run(&HashAgg{Child: opaque(scan()), GroupBy: groupBy, Aggs: ag.aggs}, 1)
					oracle, _ := run(&mapAgg{Child: opaque(scan()), GroupBy: groupBy, Aggs: ag.aggs}, 1)
					if err := sameAggRelation(relFed, oracle); err != nil {
						t.Fatalf("%s: the relation-fed pipeline diverged from the map oracle: %v", name, err)
					}
					var base *Ctx
					for _, dop := range []int{1, 8} {
						got, ctx := run(a, dop)
						if !got.Equal(relFed) {
							t.Fatalf("%s dop=%d: differs from the relation-fed pipeline:\n%v\n%v", name, dop, got.Cols, relFed.Cols)
						}
						if err := sameAggRelation(got, oracle); err != nil {
							t.Fatalf("%s dop=%d: diverged from the map oracle: %v", name, dop, err)
						}
						if base == nil {
							base = ctx
						} else if ctx.Meter.Snapshot() != base.Meter.Snapshot() {
							t.Fatalf("%s dop=%d: counters differ from DOP 1", name, dop)
						}
					}
				}
			}
		}
	}
}
