package opt

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

func testCatalog(t testing.TB, rows int) (*Catalog, *colstore.Table) {
	t.Helper()
	o := workload.GenOrders(7, rows, 1000, 1.1)
	tab := colstore.NewTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
	})
	regions := make([]string, rows)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	if err := tab.Writer().
		Int64("id", o.OrderID...).
		Int64("custkey", o.CustKey...).
		String("region", regions...).
		Float64("amount", o.Amount...).
		Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Add(tab)
	return cat, tab
}

// customersTable is the small sealed dimension fixture beside orders.
func customersTable(t testing.TB) *colstore.Table {
	t.Helper()
	const n = 3000
	tab := colstore.NewTable("customers", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
		{Name: "tier", Type: colstore.Int64},
	})
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	ckey := make([]int64, n)
	seg := make([]string, n)
	tier := make([]int64, n)
	for i := range ckey {
		ckey[i] = int64(i)
		seg[i] = segments[(i*7)%len(segments)]
		tier[i] = int64((i * 13) % 4)
	}
	if err := tab.Writer().
		Int64("ckey", ckey...).
		String("segment", seg...).
		Int64("tier", tier...).
		Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestCatalogOneRegistry pins the one registry: a registered table gets
// the very statistics the flat registry has always computed (the golden
// values below were printed by an earlier AddTable over these fixtures,
// except id's Distinct: a sample whose every row is distinct reads as a
// unique column however many rows the stride took; ScanBytesPerValue
// must match bit for bit — an estimate off by an ulp can flip a DOP
// near-tie), refreshes are idempotent, and the registered table is the
// live one.  The stored bytes count the segment synopses: orders keeps
// one by region (5 values, also its global one) and a partial one by
// custkey (its 10 values on at least 1/64 of the rows) — 15 groups of 112
// bytes — customers one by segment (5, also its global one) and one by
// tier (4): 9 groups of 64 bytes.
func TestCatalogOneRegistry(t *testing.T) {
	cat, orders := testCatalog(t, 10000)
	cat.Add(customersTable(t))
	seg := func(codec string) map[string]int { return map[string]int{codec: 1} }
	golden := map[string]TableStats{
		"orders": {Name: "orders", Rows: 10000,
			Cols: map[string]ColStats{
				"id":      {Type: colstore.Int64, Min: 1, Max: 10000, HasMinMax: true, Distinct: 10000, ScanBytesPerValue: 1.0869},
				"custkey": {Type: colstore.Int64, Min: 0, Max: 998, HasMinMax: true, Distinct: 648, ScanBytesPerValue: 2.2592},
				"region":  {Type: colstore.String, Distinct: 5, ScanBytesPerValue: 0.5154},
				"amount":  {Type: colstore.Float64, ScanBytesPerValue: 8},
			},
			Storage: colstore.TableStorage{RawBytes: 0x4e272, StoredBytes: 0x1cf57 + 1680, SynopsisBytes: 1680, Cols: []colstore.ColumnStorage{
				{Name: "id", RawBytes: 0x13880, StoredBytes: 0x2a75, Segments: seg("delta")},
				{Name: "custkey", RawBytes: 0x13880, StoredBytes: 0x5840, Segments: seg("dict")},
				{Name: "region", RawBytes: 0x138f2, StoredBytes: 0x1422, Segments: seg("dict")},
				{Name: "amount", RawBytes: 0x13880, StoredBytes: 0x13880, Segments: seg("raw")},
			}}},
		"customers": {Name: "customers", Rows: 3000,
			Cols: map[string]ColStats{
				"ckey":    {Type: colstore.Int64, Min: 0, Max: 2999, HasMinMax: true, Distinct: 3000, ScanBytesPerValue: 1.088},
				"segment": {Type: colstore.String, Distinct: 5, ScanBytesPerValue: 0.5563333333333333},
				"tier":    {Type: colstore.Int64, Min: 0, Max: 3, HasMinMax: true, Distinct: 4, ScanBytesPerValue: 0.392},
			},
			Storage: colstore.TableStorage{RawBytes: 0x119bd, StoredBytes: 0x17dd + 576, SynopsisBytes: 576, Cols: []colstore.ColumnStorage{
				{Name: "ckey", RawBytes: 0x5dc0, StoredBytes: 0xcc0, Segments: seg("delta")},
				{Name: "segment", RawBytes: 0x5e3d, StoredBytes: 0x685, Segments: seg("dict")},
				{Name: "tier", RawBytes: 0x5dc0, StoredBytes: 0x498, Segments: seg("dict")},
			}}},
	}
	check := func(when string) {
		t.Helper()
		for name, want := range golden {
			got, err := cat.Stats(name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("%s: %s statistics drifted from the flat registry's\n got %+v\nwant %+v", when, name, *got, want)
			}
		}
	}
	check("registered")
	for i := 0; i < 2; i++ {
		for name := range golden {
			if err := cat.Refresh(name); err != nil {
				t.Fatal(err)
			}
		}
		check("refreshed")
	}
	if err := cat.Refresh("nope"); err == nil {
		t.Fatal("Refresh of an unknown table must error")
	}

	// One registry: the registered table is the live one, under its name.
	if tab, err := cat.Table("orders"); err != nil || tab != orders {
		t.Fatalf("registration does not hold the live table (err %v)", err)
	}
	if _, err := cat.Table("nope"); err == nil {
		t.Fatal("Table of an unknown name must error")
	}
	if names := cat.Tables(); len(names) != 2 {
		t.Fatalf("Tables() = %v, want the two registered names", names)
	}
}

func TestCatalogStats(t *testing.T) {
	cat, _ := testCatalog(t, 10000)
	ts, err := cat.Stats("orders")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 10000 {
		t.Fatalf("rows = %d", ts.Rows)
	}
	id := ts.Cols["id"]
	if !id.HasMinMax || id.Min != 1 || id.Max != 10000 {
		t.Fatalf("id stats: %+v", id)
	}
	if ts.Cols["region"].Distinct != len(workload.RegionNames) {
		t.Fatalf("region distinct = %d", ts.Cols["region"].Distinct)
	}
	if _, err := cat.Stats("ghost"); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestSelectivityEstimates(t *testing.T) {
	cat, _ := testCatalog(t, 10000)
	ts, _ := cat.Stats("orders")
	// id uniform on [1,10000]: id < 1000 should be ~10%.
	s := ts.Selectivity(expr.Pred{Col: "id", Op: vec.LT, Val: expr.IntVal(1000)})
	if math.Abs(s-0.1) > 0.02 {
		t.Errorf("range selectivity = %g, want ~0.1", s)
	}
	// Equality on id (unique) should be tiny.
	se := ts.Selectivity(expr.Pred{Col: "id", Op: vec.EQ, Val: expr.IntVal(5)})
	if se > 0.001 {
		t.Errorf("unique equality selectivity = %g", se)
	}
	// Out-of-range predicates clamp to [0,1].
	if ts.Selectivity(expr.Pred{Col: "id", Op: vec.LT, Val: expr.IntVal(-5)}) != 0 {
		t.Error("below-domain LT must be 0")
	}
	if ts.Selectivity(expr.Pred{Col: "id", Op: vec.LT, Val: expr.IntVal(1 << 40)}) != 1 {
		t.Error("above-domain LT must be 1")
	}
}

func TestJoinOrderDPBeatsOrTiesGreedy(t *testing.T) {
	// Star schema: fact table joined to 6 dimensions of varying size.
	tables := []JoinTable{{Name: "fact", Rows: 1e6}}
	for i := 0; i < 6; i++ {
		tables = append(tables, JoinTable{Name: "dim", Rows: float64(10 + i*1000)})
	}
	g := NewJoinGraph(tables)
	for i := 1; i < len(tables); i++ {
		g.AddEdge(0, i, 1/tables[i].Rows) // FK join
	}
	_, dpCost := g.OrderDP()
	greedyOrder, greedyCost := g.OrderGreedy()
	if dpCost > greedyCost*1.0000001 {
		t.Errorf("DP (%g) must not be worse than greedy (%g)", dpCost, greedyCost)
	}
	if got := g.PlanCost(greedyOrder); math.Abs(got-greedyCost) > greedyCost*1e-9 {
		t.Errorf("PlanCost disagrees with greedy accounting: %g vs %g", got, greedyCost)
	}
}

func TestJoinOrderScalesToManyTables(t *testing.T) {
	// E10 shape: greedy must handle >10,000 tables quickly.
	n := 12000
	tables := make([]JoinTable, n)
	rng := workload.NewRNG(3)
	for i := range tables {
		tables[i] = JoinTable{Name: "t", Rows: float64(10 + rng.Intn(100000))}
	}
	g := NewJoinGraph(tables)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, 1e-4)
	}
	start := time.Now()
	order, cost, exact := g.Order()
	elapsed := time.Since(start)
	if exact {
		t.Fatal("12000 tables must take the greedy path")
	}
	if len(order) != n || cost <= 0 {
		t.Fatalf("bad order: len=%d cost=%g", len(order), cost)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("greedy ordering too slow: %v", elapsed)
	}
	seen := make([]bool, n)
	for _, t := range order {
		seen[t] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("table %d missing from order", i)
		}
	}
}

func TestPlannerSingleTable(t *testing.T) {
	cat, _ := testCatalog(t, 5000)
	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From: "orders",
		Preds: []expr.Pred{
			{Col: "region", Op: vec.EQ, Val: expr.StrVal("ASIA")},
		},
		Select:  []SelectItem{{Col: "region"}, {Agg: expr.AggSum, Col: "amount", As: "rev"}, {Agg: expr.AggCount, As: "n"}},
		GroupBy: []string{"region"},
	}
	node, info, err := cat.Plan(q, cm)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 1 {
		t.Fatalf("expected 1 group, got %d", rel.N)
	}
	rc, err := rel.Col("region")
	if err != nil {
		t.Fatal(err)
	}
	if rc.Str(0) != "ASIA" {
		t.Fatalf("group = %q", rc.Str(0))
	}
	if info.Est.Energy <= 0 || info.Explain == "" {
		t.Error("plan info must carry estimates and explain text")
	}
}

func TestPlannerJoinQuery(t *testing.T) {
	cat, _ := testCatalog(t, 3000)
	cust := colstore.NewTable("customer", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
	})
	for k := 0; k < 1000; k++ {
		seg := "RETAIL"
		if k%4 == 0 {
			seg = "WHOLESALE"
		}
		if err := cust.Writer().Row(int64(k), seg).Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cust.Merge(0); err != nil {
		t.Fatal(err)
	}
	cat.Add(cust)
	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From:    "orders",
		Joins:   []JoinSpec{{Table: "customer", LeftCol: "custkey", RightCol: "ckey"}},
		Select:  []SelectItem{{Col: "segment"}, {Agg: expr.AggSum, Col: "amount", As: "rev"}},
		GroupBy: []string{"segment"},
		OrderBy: []expr.SortKey{{Col: "rev", Desc: true}},
	}
	node, _, err := cat.Plan(q, cm)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 2 {
		t.Fatalf("expected 2 segments, got %d", rel.N)
	}
	rev, _ := rel.Col("rev")
	if rev.F[0] < rev.F[1] {
		t.Error("ORDER BY rev DESC violated")
	}
}

func TestPlannerErrors(t *testing.T) {
	cat, _ := testCatalog(t, 100)
	cm := NewCostModel(energy.DefaultModel())
	if _, _, err := cat.Plan(&Query{}, cm); err == nil {
		t.Error("missing FROM must error")
	}
	q := &Query{From: "orders", Preds: []expr.Pred{{Col: "nope", Op: vec.EQ, Val: expr.IntVal(1)}}}
	if _, _, err := cat.Plan(q, cm); err == nil {
		t.Error("unknown predicate column must error")
	}
}

func TestEstimateMatchesMeasuredShape(t *testing.T) {
	// The estimator does not need to match measured counters exactly, but
	// the full-scan estimate must grow linearly with rows.
	cat, _ := testCatalog(t, 100000)
	ts, _ := cat.Stats("orders")
	small := EstimateFullScan(ts, []expr.Pred{{Col: "id", Op: vec.LT, Val: expr.IntVal(10)}}, 1)
	tsBig := &TableStats{Name: "x", Rows: ts.Rows * 10, Cols: ts.Cols}
	big := EstimateFullScan(tsBig, []expr.Pred{{Col: "id", Op: vec.LT, Val: expr.IntVal(10)}}, 1)
	ratio := float64(big.BytesReadDRAM) / float64(small.BytesReadDRAM)
	if math.Abs(ratio-10) > 1 {
		t.Errorf("scan bytes should scale ~10x with rows, got %gx", ratio)
	}
	// A predicate-free aggregation still streams a column to count rows:
	// the estimate must never degenerate to zero work, or the serving
	// front end's estimate-charging 402 admission admits it for free.
	bare := EstimateFullScan(ts, nil, 0)
	if bare.BytesReadDRAM == 0 || bare.Instructions == 0 {
		t.Errorf("predicate-free scan estimate must charge the row stream, got %+v", bare)
	}
}

func TestObjectiveStrings(t *testing.T) {
	if MinTime.String() != "min-time" || MinEnergy.String() != "min-energy" || MinEDP.String() != "min-edp" {
		t.Fatal("objective names wrong")
	}
}

// TestPlannerOneScanAtEverySize: parallelism is the morsel grid's — more
// than one morsel is parallel work, a single-morsel table is one task —
// and never an operator type: both plans are the one Scan.
func TestPlannerOneScanAtEverySize(t *testing.T) {
	cat, tab := testCatalog(t, 4*exec.MorselRows+1000)
	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From:    "orders",
		Preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(500)}},
		Select:  []SelectItem{{Col: "region"}, {Agg: expr.AggSum, Col: "amount"}},
		GroupBy: []string{"region"},
	}
	node, info, err := cat.Plan(q, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Explain, "Scan(orders)") {
		t.Errorf("explain should show the scan:\n%s", info.Explain)
	}
	// The planned tree must compute the same rows as the hand-built
	// operators over the same logical query.
	got, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	serial := &exec.HashAgg{
		Child: &exec.Scan{Source: tab, Select: []string{"amount", "custkey", "region"},
			Preds: []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(500)}}},
		GroupBy: []string{"region"},
		Aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "amount", As: "sum_amount"}},
	}
	want, err := serial.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N {
		t.Fatalf("group count: got %d want %d", got.N, want.N)
	}
	gr, _ := got.Col("region")
	wr, _ := want.Col("region")
	gs, _ := got.Col("sum_amount")
	ws, _ := want.Col("sum_amount")
	for i := 0; i < got.N; i++ {
		if gr.Str(i) != wr.Str(i) {
			t.Errorf("group %d: got %q want %q", i, gr.Str(i), wr.Str(i))
		}
		if d := math.Abs(gs.F[i]-ws.F[i]) / (math.Abs(ws.F[i]) + 1); d > 1e-9 {
			t.Errorf("group %q sum: got %g want %g", wr.Str(i), gs.F[i], ws.F[i])
		}
	}
	// A table under one morsel is one task: the same operator tree.
	smallCat, _ := testCatalog(t, 10_000)
	_, smallInfo, err := smallCat.Plan(q, cm)
	if err != nil {
		t.Fatal(err)
	}
	if smallInfo.Explain != info.Explain {
		t.Errorf("single-morsel table must plan the same tree:\n%s\nvs\n%s", smallInfo.Explain, info.Explain)
	}
}
