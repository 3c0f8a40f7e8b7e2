package dist_test

// Package dist lives in internal/experiments/dist, beside E17, the
// experiment that owns it; its tests keep this import path.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/exec"
	. "repro/internal/experiments/dist"
	"repro/internal/expr"
	"repro/internal/netsim"
	"repro/internal/vec"
	"repro/internal/workload"
)

func testSchema() colstore.Schema {
	return colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
	}
}

func testQuery() AggQuery {
	return AggQuery{
		Preds:    []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(800)}},
		GroupBy:  "region",
		SumCol:   "amount",
		SumAlias: "rev",
	}
}

// loadCluster builds a sealed nodes-way cluster with rows generated orders
// round-robin partitioned, mirroring experiment E17's setup.
func loadCluster(t *testing.T, nodes, rows int, link *netsim.Link) *Cluster {
	t.Helper()
	c := NewCluster(nodes, testSchema(), "orders", link)
	o := workload.GenOrders(55, rows, 1000, 1.1)
	for i := 0; i < rows; i++ {
		n := c.Nodes[i%nodes]
		err := n.Table.Writer().Row(o.CustKey[i], workload.RegionNames[o.Region[i]], o.Amount[i]).Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		ShipRaw:        "ship-raw",
		ShipCompressed: "ship-compressed",
		Pushdown:       "pushdown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Strategy(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
}

// TestStrategiesAgree is the core contract: all three strategies produce
// byte-identical merged relations, while their wire footprints are
// strictly ordered raw > compressed > pushdown.
func TestStrategiesAgree(t *testing.T) {
	link, err := netsim.LinkByName("0.1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	c := loadCluster(t, 4, 20_000, link)
	q := testQuery()

	reports := map[Strategy]Report{}
	var base interface{}
	for _, s := range []Strategy{ShipRaw, ShipCompressed, Pushdown} {
		rel, rep, err := c.Run(q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rel.N == 0 {
			t.Fatalf("%v: empty result", s)
		}
		if got := rel.ColNames(); !reflect.DeepEqual(got, []string{"region", "rev"}) {
			t.Fatalf("%v: columns %v", s, got)
		}
		if base == nil {
			base = *rel
		} else if !reflect.DeepEqual(base, *rel) {
			t.Errorf("%v result diverges from ship-raw:\n%+v\nvs\n%+v", s, *rel, base)
		}
		reports[s] = rep
	}

	raw, comp, push := reports[ShipRaw], reports[ShipCompressed], reports[Pushdown]
	if !(raw.WireBytes > comp.WireBytes && comp.WireBytes > push.WireBytes) {
		t.Errorf("wire bytes must order raw > compressed > pushdown: %d, %d, %d",
			raw.WireBytes, comp.WireBytes, push.WireBytes)
	}
	if push.WireBytes*10 >= raw.WireBytes {
		t.Errorf("pushdown must ship >=10x fewer bytes: %d vs %d", push.WireBytes, raw.WireBytes)
	}
	if push.Energy >= raw.Energy {
		t.Errorf("pushdown must win energy on the slow link: %v vs %v", push.Energy, raw.Energy)
	}
	if push.Transfer >= raw.Transfer {
		t.Errorf("pushdown must win transfer time: %v vs %v", push.Transfer, raw.Transfer)
	}
}

// TestIntegerSum covers the BIGINT aggregation path (exact sums, so the
// cross-strategy agreement is arithmetic rather than fp-ordering luck).
func TestIntegerSum(t *testing.T) {
	link, err := netsim.LinkByName("40Gbps")
	if err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "v", Type: colstore.Int64},
	}
	c := NewCluster(3, schema, "kv", link)
	var want int64
	for i := 0; i < 999; i++ {
		if err := c.Nodes[i%3].Table.Writer().Row(int64(i%5), int64(i)).Close(); err != nil {
			t.Fatal(err)
		}
		if i%5 < 3 {
			want += int64(i)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	q := AggQuery{
		Preds:   []expr.Pred{{Col: "k", Op: vec.LT, Val: expr.IntVal(3)}},
		GroupBy: "k",
		SumCol:  "v",
	}
	for _, s := range []Strategy{ShipRaw, ShipCompressed, Pushdown} {
		rel, _, err := c.Run(q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rel.N != 3 {
			t.Fatalf("%v: %d groups, want 3", s, rel.N)
		}
		sum, err := rel.Col("sum_v")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var got int64
		for _, v := range sum.I {
			got += v
		}
		if got != want {
			t.Errorf("%v: total %d, want %d", s, got, want)
		}
		// Groups must come out sorted by key.
		keys, err := rel.Col("k")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(keys.I, []int64{0, 1, 2}) {
			t.Errorf("%v: group keys %v, want [0 1 2]", s, keys.I)
		}
	}
}

// TestFloatGroupKeysWithNaN regresses the merge: NaN keys from different
// nodes are one group, never one group per NaN row, and the merged keys
// come out in the engine's one DOUBLE order (NaN highest, as MIN/MAX)
// whichever node holds the NaN — including a NaN partial stacked between
// two other keys.
func TestFloatGroupKeysWithNaN(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{
		{Name: "g", Type: colstore.Float64},
		{Name: "v", Type: colstore.Int64},
	}
	nan := math.NaN()
	layouts := [][][]float64{
		{{1.5, 2.5, 1.5}, {nan, nan, nan}},
		{{2.5, nan, nan, nan}, {1.5, 1.5}},
	}
	for li, nodes := range layouts {
		c := NewCluster(len(nodes), schema, "t", link)
		for n, vals := range nodes {
			for _, g := range vals {
				if err := c.Nodes[n].Table.Writer().Row(g, int64(1)).Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		q := AggQuery{GroupBy: "g", SumCol: "v"}
		for _, s := range []Strategy{ShipRaw, ShipCompressed, Pushdown} {
			rel, _, err := c.Run(q, s)
			if err != nil {
				t.Fatalf("layout %d %v: %v", li, s, err)
			}
			if rel.N != 3 {
				t.Fatalf("layout %d %v: %d groups, want 3 (1.5, 2.5, NaN)", li, s, rel.N)
			}
			keys, _ := rel.Col("g")
			if keys.F[0] != 1.5 || keys.F[1] != 2.5 || !math.IsNaN(keys.F[2]) {
				t.Errorf("layout %d %v: group keys %v, want [1.5 2.5 NaN]", li, s, keys.F)
			}
			sums, _ := rel.Col("sum_v")
			if !reflect.DeepEqual(sums.I, []int64{2, 1, 3}) {
				t.Errorf("layout %d %v: sums %v, want [2 1 3]", li, s, sums.I)
			}
		}
	}
}

func TestUnsealedClusterErrors(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(2, testSchema(), "orders", link)
	if _, _, err := c.Run(testQuery(), Pushdown); err == nil {
		t.Fatal("Run on an unsealed cluster must fail")
	} else if !strings.Contains(err.Error(), "sealed") {
		t.Errorf("error should name sealing: %v", err)
	}
}

func TestBadQueryErrors(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	c := loadCluster(t, 2, 100, link)
	q := testQuery()
	q.SumCol = "region" // SUM over VARCHAR
	for _, s := range []Strategy{ShipRaw, ShipCompressed, Pushdown} {
		if _, _, err := c.Run(q, s); err == nil {
			t.Errorf("%v: SUM over VARCHAR must fail", s)
		}
	}
	if _, _, err := c.Run(testQuery(), Strategy(42)); err == nil {
		t.Error("unknown strategy must fail")
	}
	// A type-mismatched predicate literal must fail identically under
	// every strategy (the coordinator-side Filter would otherwise
	// silently compare against the wrong Value field).
	bad := testQuery()
	bad.Preds = []expr.Pred{{Col: "amount", Op: vec.GT, Val: expr.IntVal(5)}}
	missing := testQuery()
	missing.Preds = []expr.Pred{{Col: "nope", Op: vec.EQ, Val: expr.IntVal(1)}}
	for _, s := range []Strategy{ShipRaw, ShipCompressed, Pushdown} {
		if _, _, err := c.Run(bad, s); err == nil {
			t.Errorf("%v: mistyped predicate literal must fail", s)
		}
		if _, _, err := c.Run(missing, s); err == nil {
			t.Errorf("%v: predicate on unknown column must fail", s)
		}
	}
}

func TestQueryString(t *testing.T) {
	got := testQuery().String()
	for _, frag := range []string{"SUM(amount) AS rev", "custkey < 800", "GROUP BY region"} {
		if !strings.Contains(got, frag) {
			t.Errorf("query rendering %q missing %q", got, frag)
		}
	}
	noAlias := AggQuery{GroupBy: "k", SumCol: "v"}.String()
	if strings.Contains(noAlias, " AS ") {
		t.Errorf("empty alias must not render AS: %q", noAlias)
	}
}

// TestGroupBySumSameColumn covers GroupBy == SumCol, where the pushdown
// scan must not materialize (or name) the column twice.
func TestGroupBySumSameColumn(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	schema := colstore.Schema{{Name: "x", Type: colstore.Int64}}
	c := NewCluster(2, schema, "t", link)
	for i := 0; i < 10; i++ {
		if err := c.Nodes[i%2].Table.Writer().Row(int64(i % 3)).Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	q := AggQuery{GroupBy: "x", SumCol: "x"}
	var base interface{}
	for _, s := range []Strategy{ShipRaw, ShipCompressed, Pushdown} {
		rel, _, err := c.Run(q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rel.N != 3 {
			t.Fatalf("%v: %d groups, want 3", s, rel.N)
		}
		if base == nil {
			base = *rel
		} else if !reflect.DeepEqual(base, *rel) {
			t.Errorf("%v diverges: %+v vs %+v", s, *rel, base)
		}
	}
}

// TestFilterMatchesPushedScan: the coordinator's row-at-a-time Filter
// keeps exactly the rows the same predicates select when pushed into the
// node's scan — over BIGINT, DOUBLE and VARCHAR columns — and charges
// one report for the rows it kept.
func TestFilterMatchesPushedScan(t *testing.T) {
	link, err := netsim.LinkByName("0.1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	tab := loadCluster(t, 1, 4000, link).Nodes[0].Table
	preds := []expr.Pred{
		{Col: "custkey", Op: vec.LT, Val: expr.IntVal(800)},
		{Col: "amount", Op: vec.GE, Val: expr.FloatVal(100)},
		{Col: "region", Op: vec.NE, Val: expr.StrVal("ASIA")},
	}
	ctx := exec.NewCtx()
	got, err := (&Filter{Child: &exec.Scan{Source: tab}, Preds: preds}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&exec.Scan{Source: tab, Preds: preds}).Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if want.N == 0 || want.N == tab.Rows() || !got.Equal(want) {
		t.Fatalf("filter kept %d rows, pushed scan %d of %d", got.N, want.N, tab.Rows())
	}
	found := false
	for _, r := range ctx.OpReports {
		found = found || strings.HasPrefix(r.Label, "Filter(") && r.Rows == want.N
	}
	if !found {
		t.Fatalf("no Filter report of %d rows in %+v", want.N, ctx.OpReports)
	}
}
