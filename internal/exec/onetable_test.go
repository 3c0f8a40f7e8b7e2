package exec

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/colstore"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// oneTable seals a base of n rows, then applies `extra` committed inserts
// at ts 1..extra — every fifth carrying a region no dictionary has seen —
// and, past them, tombstones over every 41st base row and every tenth
// inserted row.
func oneTable(t testing.TB, n, extra int) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "grp", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "val", Type: colstore.Int64},
	})
	rcodes := synth.UniformInts(33, n, int64(len(workload.RegionNames)))
	regions := make([]string, n)
	for i, c := range rcodes {
		regions[i] = workload.RegionNames[c]
	}
	amounts := make([]float64, n)
	for i := range amounts {
		amounts[i] = float64(i%883) + 0.5
	}
	must(t, tab.Writer().Int64("custkey", synth.UniformInts(31, n, 1<<16)...).Close())
	must(t, tab.Writer().Int64("grp", synth.UniformInts(32, n, 24)...).Close())
	must(t, tab.Writer().String("region", regions...).Close())
	must(t, tab.Writer().Float64("amount", amounts...).Close())
	must(t, tab.Writer().Int64("val", synth.UniformInts(34, n, 1<<20)...).Close())
	must(t, tab.Seal())

	var ids []int64
	lsn := uint64(1)
	ts := int64(0)
	for i := 0; i < extra; i++ {
		ts++
		region := workload.RegionNames[i%len(workload.RegionNames)]
		if i%5 == 4 {
			region = "NEW" + strconv.Itoa(i%13)
		}
		id, err := tab.ApplyInsert(ts, lsn, int64((i*7919)%(1<<16)), int64(i%24), region,
			float64(i)+0.25, int64(i%(1<<20)))
		must(t, err)
		ids = append(ids, id)
		lsn++
	}
	if extra > 0 {
		for i := 0; i < n/41; i++ {
			ts++
			must(t, tab.ApplyDelete(ts, lsn, tab.RowID(i*41)))
			lsn++
		}
		for i := 0; i < extra/10; i++ {
			ts++
			must(t, tab.ApplyDelete(ts, lsn, ids[i*10]))
			lsn++
		}
	}
	return tab
}

// rowScan is the scan oracle: it reads the table a row at a time through
// the columns' Get and the tombstones' DeletedAt — no segment, zone map,
// band kernel or visibility mask of the Scan's — and keeps the rows whose
// insert and not whose delete is visible at the snapshot and that every
// predicate (BIGINT column against a constant) admits.
func rowScan(t testing.TB, tab *colstore.Table, snap int64, sel []string, preds []expr.Pred) *Relation {
	t.Helper()
	schema := tab.Schema()
	if len(sel) == 0 {
		for _, d := range schema {
			sel = append(sel, d.Name)
		}
	}
	var rows []int
	for r := 0; r < tab.RowsAsOf(snap); r++ {
		if ts, dead := tab.DeletedAt(tab.RowID(r)); dead && (snap <= 0 || ts <= snap) {
			continue
		}
		keep := true
		for _, p := range preds {
			c, err := tab.IntCol(p.Col)
			must(t, err)
			if !cmpHolds(p.Op, c.Get(r), p.Val.I) {
				keep = false
				break
			}
		}
		if keep {
			rows = append(rows, r)
		}
	}
	out := &Relation{N: len(rows)}
	for _, name := range sel {
		col, err := tab.Column(name)
		must(t, err)
		switch c := col.(type) {
		case *colstore.IntColumn:
			v := make([]int64, len(rows))
			for i, r := range rows {
				v[i] = c.Get(r)
			}
			out.Cols = append(out.Cols, Col{Name: name, Type: colstore.Int64, I: v})
		case *colstore.FloatColumn:
			v := make([]float64, len(rows))
			for i, r := range rows {
				v[i] = c.Get(r)
			}
			out.Cols = append(out.Cols, Col{Name: name, Type: colstore.Float64, F: v})
		case *colstore.StringColumn:
			v := make([]string, len(rows))
			for i, r := range rows {
				v[i] = c.Get(r)
			}
			out.Cols = append(out.Cols, StringCol(name, v))
		default:
			t.Fatalf("column %s: unexpected type %T", name, col)
		}
	}
	return out
}

func cmpHolds(op vec.CmpOp, v, c int64) bool {
	switch op {
	case vec.LT:
		return v < c
	case vec.LE:
		return v <= c
	case vec.GT:
		return v > c
	case vec.GE:
		return v >= c
	case vec.EQ:
		return v == c
	default:
		return v != c
	}
}

// TestOneShardIsFlat is the contract of the one table shape.  A served
// table is one colstore.Table — a sealed main and a write-ahead delta —
// and a Scan binds it whole: it is its own single shard (a table cut into
// value-range shards is E25's experiment, internal/experiments/shard).
// Over sealed, live (at the latest and an older snapshot) and empty
// tables, with a predicate the zone maps admit and one disjoint from
// every zone, every plan the planner puts over a scan — the scan, the
// scan of every column, the scan-fed aggregates (int and string group
// keys, global, DOUBLE input) and the fused probe — returns its oracle's
// relation (the row-at-a-time scan, the map aggregate over it, the map
// join), every aggregate over a non-empty table folds scan-fed, and each
// plan's relation and Meter are identical at DOP 1 and 3.
func TestOneShardIsFlat(t *testing.T) {
	sel := []string{"custkey", "grp", "region", "amount", "val"}
	predSets := map[string][]expr.Pred{
		"range":    {{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 14)}},
		"disjoint": {{Col: "custkey", Op: vec.GT, Val: expr.IntVal(1 << 20)}}, // keys lie below 1<<16
	}
	sumVal := []expr.AggSpec{{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount}}
	sumAmount := []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}}
	type plan struct {
		build  func(s *Scan) Node
		oracle func(s *Scan) Node // nil: the row-at-a-time scan
		fold   bool               // an aggregate the scan feeds
	}
	agg := func(groupBy []string, aggs []expr.AggSpec) plan {
		return plan{
			build:  func(s *Scan) Node { return &HashAgg{Child: s, GroupBy: groupBy, Aggs: aggs} },
			oracle: func(s *Scan) Node { return &mapAgg{Child: s, GroupBy: groupBy, Aggs: aggs} },
			fold:   true,
		}
	}
	plans := map[string]plan{
		"scan":       {build: func(s *Scan) Node { return s }},
		"scan-all":   {build: func(s *Scan) Node { s.Preds, s.Select = nil, nil; return s }},
		"fused-agg":  agg([]string{"grp"}, sumVal),
		"string-agg": agg([]string{"region"}, sumVal),
		"global-agg": agg(nil, sumVal),
		"float-agg":  agg([]string{"grp"}, sumAmount),
		"fused-probe": {
			build: func(s *Scan) Node { return &Join{Left: s, Right: intDimSource(), LeftKey: "grp", RightKey: "k"} },
			oracle: func(s *Scan) Node {
				return &mapJoin{Left: s, Right: intDimSource(), LeftKey: "grp", RightKey: "k"}
			},
		},
	}
	for _, live := range []struct {
		name     string
		n, extra int
		snap     int64
	}{
		{"sealed", 150_000, 0, snapLatest},
		{"live", 150_000, 300, snapLatest},
		{"live@150", 150_000, 300, 150},
		{"empty", 0, 0, snapLatest},
	} {
		tab := oneTable(t, live.n, live.extra)
		for pname, preds := range predSets {
			for name, p := range plans {
				t.Run(live.name+"/"+pname+"/"+name, func(t *testing.T) {
					scan := func() *Scan { return &Scan{Source: tab, Select: sel, Preds: preds} }
					ctx := NewCtx()
					ctx.SnapTS = live.snap
					ctx.Lease = NewLease(1)
					want, err := p.build(scan()).Run(ctx)
					must(t, err)
					w := ctx.Meter.Snapshot()
					if live.n > 0 && pname == "range" && want.N == 0 {
						t.Fatal("degenerate plan: no output rows")
					}
					if p.fold && live.n > 0 && !ranScanFed(ctx) {
						t.Fatal("the aggregate did not fold the table scan-fed")
					}

					var oracle *Relation
					if p.oracle == nil {
						s := p.build(scan()).(*Scan)
						oracle = rowScan(t, tab, live.snap, s.Select, s.Preds)
					} else {
						octx := NewCtx()
						octx.SnapTS = live.snap
						oracle, err = p.oracle(scan()).Run(octx)
						must(t, err)
					}
					if !want.Equal(oracle) {
						t.Fatalf("relation diverged from the oracle: N=%d, want %d", want.N, oracle.N)
					}

					ctx3 := NewCtx()
					ctx3.SnapTS = live.snap
					ctx3.Lease = NewLease(3)
					got, err := p.build(scan()).Run(ctx3)
					must(t, err)
					if !reflect.DeepEqual(got, want) {
						t.Fatal("dop=3: relation diverged from dop=1")
					}
					if g := ctx3.Meter.Snapshot(); g != w {
						t.Fatalf("dop=3: Meter diverged from dop=1\n got %+v\nwant %+v", g, w)
					}
				})
			}
		}
	}
}
