package exec

import (
	"cmp"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// relSource serves a fixed relation: the child of operator tests that
// need no scan.
type relSource struct{ rel *Relation }

func (s *relSource) Run(*Ctx) (*Relation, error) { return s.rel, nil }
func (s *relSource) Label() string               { return "source" }
func (s *relSource) Kids() []Node                { return nil }

// opaque hides a scan from its consumer: HashAgg and ParallelJoin fuse
// only a *Scan child, so wrapping it runs the materializing pipeline —
// the reference arm of the fused-vs-materialized identity tests.
func opaque(n Node) Node { return struct{ Node }{n} }

// runPlan executes a plan at a fixed DOP and returns the result plus the
// total metered counters.
func runPlan(t *testing.T, n Node, dop int) (*Relation, *Ctx) {
	t.Helper()
	ctx := NewCtx()
	ctx.Lease = NewLease(dop)
	rel, err := n.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ctx
}

// refScan is the row-at-a-time reference evaluator the one scan is
// anchored on: no bitvectors, no morsels, no column kernels — one Get
// and one comparison per row and predicate, over a table without delta
// rows or tombstones.
func refScan(t testing.TB, tab *colstore.Table, sel []string, preds []expr.Pred) *Relation {
	t.Helper()
	if len(sel) == 0 {
		for _, d := range tab.Schema() {
			sel = append(sel, d.Name)
		}
	}
	holds := func(op vec.CmpOp, c int) bool {
		return map[vec.CmpOp]bool{vec.LT: c < 0, vec.LE: c <= 0, vec.GT: c > 0, vec.GE: c >= 0, vec.EQ: c == 0, vec.NE: c != 0}[op]
	}
	col := func(name string) colstore.Column {
		c, err := tab.Column(name)
		must(t, err)
		return c
	}
	var rows []int
	for r := 0; r < tab.Rows(); r++ {
		ok := true
		for _, p := range preds {
			switch c := col(p.Col).(type) {
			case *colstore.IntColumn:
				ok = ok && holds(p.Op, cmp.Compare(c.Get(r), p.Val.I))
			case *colstore.FloatColumn:
				ok = ok && holds(p.Op, cmp.Compare(c.Get(r), p.Val.F))
			case *colstore.StringColumn:
				ok = ok && holds(p.Op, cmp.Compare(c.Get(r), p.Val.S))
			}
		}
		if ok {
			rows = append(rows, r)
		}
	}
	out := &Relation{N: len(rows)}
	for _, name := range sel {
		oc := Col{Name: name, Type: col(name).Type()}
		switch c := col(name).(type) {
		case *colstore.IntColumn:
			oc.I = make([]int64, len(rows))
			for i, r := range rows {
				oc.I[i] = c.Get(r)
			}
		case *colstore.FloatColumn:
			oc.F = make([]float64, len(rows))
			for i, r := range rows {
				oc.F[i] = c.Get(r)
			}
		case *colstore.StringColumn:
			vals := make([]string, len(rows))
			for i, r := range rows {
				vals[i] = c.Get(r)
			}
			oc = StringCol(name, vals)
		}
		out.Cols = append(out.Cols, oc)
	}
	return out
}

// TestScanMatchesReference: the morsel scan must reproduce the
// row-at-a-time reference's rows, order, and values (strings decoded)
// exactly at every DOP, with DOP-invariant Meter totals, across predicate
// types (packed int, float, dictionary string) and projections.
func TestScanMatchesReference(t *testing.T) {
	tab := ordersTable(t, 200_000)
	cases := []struct {
		name  string
		sel   []string
		preds []expr.Pred
	}{
		{"no-preds-all-cols", nil, nil},
		{"int-lt", []string{"id", "amount"}, []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(40)}}},
		{"int-eq", []string{"id"}, []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(7)}}},
		{"float-gt", []string{"id", "region"}, []expr.Pred{{Col: "amount", Op: vec.GT, Val: expr.FloatVal(900)}}},
		{"string-eq", []string{"id", "amount"}, []expr.Pred{{Col: "region", Op: vec.EQ, Val: expr.StrVal("ASIA")}}},
		{"string-ne-unknown", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.NE, Val: expr.StrVal("NOWHERE")}}},
		{"string-lt", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.LT, Val: expr.StrVal("EUROPE")}}},
		{"string-le", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.LE, Val: expr.StrVal("ASIA")}}},
		{"string-gt", []string{"id"}, []expr.Pred{{Col: "region", Op: vec.GT, Val: expr.StrVal("ASIA")}}},
		{"conjunction", []string{"id", "region", "amount"}, []expr.Pred{
			{Col: "custkey", Op: vec.LT, Val: expr.IntVal(60)},
			{Col: "amount", Op: vec.GE, Val: expr.FloatVal(10)},
			{Col: "region", Op: vec.NE, Val: expr.StrVal("AFRICA")},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refScan(t, tab, tc.sel, tc.preds)
			scan := &Scan{Source: tab, Select: tc.sel, Preds: tc.preds}
			_, ctx1 := runPlan(t, scan, 1)
			for _, dop := range []int{1, 3, 8} {
				got, ctx := runPlan(t, scan, dop)
				if !got.Equal(want) {
					t.Fatalf("DOP %d: scan diverged from the reference (%d vs %d rows)", dop, got.N, want.N)
				}
				if w, w1 := ctx.Meter.Snapshot(), ctx1.Meter.Snapshot(); w != w1 || w == (energy.Counters{}) {
					t.Fatalf("DOP %d: Meter totals not DOP-invariant:\n%+v\n%+v", dop, w, w1)
				}
			}
		})
	}
}

// TestScanErrors: mistyped predicates and unknown columns must fail
// before any worker starts.
func TestScanErrors(t *testing.T) {
	tab := ordersTable(t, 1000)
	if _, err := (&Scan{Source: tab, Preds: []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.StrVal("x")}}}).Run(NewCtx()); err == nil {
		t.Error("string literal against BIGINT column must error")
	}
	if _, err := (&Scan{Source: tab, Preds: []expr.Pred{{Col: "nope", Op: vec.EQ, Val: expr.IntVal(1)}}}).Run(NewCtx()); err == nil {
		t.Error("unknown predicate column must error")
	}
	if _, err := (&Scan{Source: tab, Select: []string{"nope"}}).Run(NewCtx()); err == nil {
		t.Error("unknown projection column must error")
	}
	if _, err := (&Scan{}).Run(NewCtx()); err == nil {
		t.Error("a scan without a source must error")
	}
}

// TestParallelAggDOPInvariant is the acceptance test for the morsel
// executor, exercised under -race by the CI race job: the same grouped
// aggregation over a parallel scan must produce byte-identical relations
// and identical total energy counters at DOP 1 and DOP 8.
func TestParallelAggDOPInvariant(t *testing.T) {
	// 400k rows: seven morsels, so the fold and its merge fan out.
	tab := ordersTable(t, 400_000)
	plan := func() *HashAgg {
		return &HashAgg{
			Child: &Scan{
				Source: tab,
				Select: []string{"custkey", "region", "amount"},
				Preds:  []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(80)}},
			},
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "amount", As: "rev"},
				{Func: expr.AggCount, As: "n"},
				{Func: expr.AggMin, Col: "amount", As: "lo"},
				{Func: expr.AggMax, Col: "amount", As: "hi"},
				{Func: expr.AggAvg, Col: "amount", As: "avg"},
			},
		}
	}
	rel1, ctx1 := runPlan(t, plan(), 1)
	rel8, ctx8 := runPlan(t, plan(), 8)
	if rel1.N == 0 {
		t.Fatal("aggregation produced no groups")
	}
	if !reflect.DeepEqual(rel1, rel8) {
		t.Fatalf("relations differ between DOP 1 and DOP 8:\nDOP1: %+v\nDOP8: %+v", rel1, rel8)
	}
	w1, w8 := ctx1.Meter.Snapshot(), ctx8.Meter.Snapshot()
	if w1 != w8 {
		t.Fatalf("total counters differ between DOP 1 and DOP 8:\nDOP1: %+v\nDOP8: %+v", w1, w8)
	}
	if w1 == (energy.Counters{}) {
		t.Fatal("no work charged")
	}
}

// TestParallelAggMatchesSerialGroups: group keys, counts, extrema and
// sums of the morsel-parallel aggregation equal the serial row loop's —
// a DOUBLE sum is order-free, so exactly.
func TestParallelAggMatchesSerialGroups(t *testing.T) {
	tab := ordersTable(t, 300_000)
	mk := func(scan Node) *HashAgg {
		return &HashAgg{
			Child:   scan,
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "amount", As: "rev"},
				{Func: expr.AggCount, As: "n"},
				{Func: expr.AggMin, Col: "amount", As: "lo"},
				{Func: expr.AggMax, Col: "amount", As: "hi"},
			},
		}
	}
	// Serial reference: the map oracle's row loop (agg_oracle_test.go)
	// driven over all of the scan's rows as one window.
	scan := &Scan{Source: tab, Select: []string{"region", "amount"}}
	in, err := scan.Run(NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	serialAgg := mk(&relSource{rel: in})
	want := map[string][]float64{}
	{
		groupCols, aggCols, err := oracleCols(serialAgg, in)
		if err != nil {
			t.Fatal(err)
		}
		tbl := newAggTable()
		(&mapAgg{GroupBy: serialAgg.GroupBy, Aggs: serialAgg.Aggs}).aggRange(tbl, groupCols, aggCols, 0, in.N)
		for _, key := range tbl.order {
			st := tbl.groups[key]
			want[key] = []float64{exactSum(st.fvals[0]), float64(st.count), st.mins[2], st.maxs[3]}
		}
	}
	got, _ := runPlan(t, mk(&Scan{Source: tab, Select: []string{"region", "amount"}}), 4)
	if got.N != len(want) {
		t.Fatalf("group count: got %d want %d", got.N, len(want))
	}
	regions, _ := got.Col("region")
	revs, _ := got.Col("rev")
	counts, _ := got.Col("n")
	los, _ := got.Col("lo")
	his, _ := got.Col("hi")
	for i := 0; i < got.N; i++ {
		key := string(binary.AppendUvarint(nil, uint64(len(regions.Str(i))))) + regions.Str(i)
		ref, ok := want[key]
		if !ok {
			t.Fatalf("unexpected group %q", regions.Str(i))
		}
		if revs.F[i] != ref[0] {
			t.Errorf("group %q sum: got %g want %g", regions.Str(i), revs.F[i], ref[0])
		}
		if float64(counts.I[i]) != ref[1] {
			t.Errorf("group %q count: got %d want %g", regions.Str(i), counts.I[i], ref[1])
		}
		if los.F[i] != ref[2] || his.F[i] != ref[3] {
			t.Errorf("group %q extrema: got (%g,%g) want (%g,%g)", regions.Str(i), los.F[i], his.F[i], ref[2], ref[3])
		}
	}
}
