package opt

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// intTable registers a table of BIGINT columns given parallel slices.
func intTable(t *testing.T, cat *Catalog, name string, cols map[string][]int64, order []string) *colstore.Table {
	t.Helper()
	schema := colstore.Schema{}
	for _, n := range order {
		schema = append(schema, colstore.ColumnDef{Name: n, Type: colstore.Int64})
	}
	tab := colstore.NewTable(name, schema)
	for _, n := range order {
		if err := tab.Writer().Int64(n, cols[n]...).Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Seal(); err != nil {
		t.Fatal(err)
	}
	cat.Add(colstore.OneShard(tab))
	return tab
}

// TestPlannerJoinOrderDP plans a three-table query and checks that the
// join-ordering pass ran the exact DP, recorded its order, and that the
// reordered (and possibly side-swapped) plan still returns the right
// rows.
func TestPlannerJoinOrderDP(t *testing.T) {
	cat := NewCatalog()
	const nFact, nA, nB = 2000, 100, 50
	fa := workload.UniformInts(1, nFact, nA)
	fb := workload.UniformInts(2, nFact, nB)
	ids := make([]int64, nFact)
	for i := range ids {
		ids[i] = int64(i)
	}
	intTable(t, cat, "fact", map[string][]int64{"id": ids, "a": fa, "b": fb}, []string{"id", "a", "b"})
	ka := make([]int64, nA)
	s1 := make([]int64, nA)
	for i := range ka {
		ka[i] = int64(i)
		s1[i] = int64(i) * 7
	}
	intTable(t, cat, "dima", map[string][]int64{"ka": ka, "score1": s1}, []string{"ka", "score1"})
	kb := make([]int64, nB)
	s2 := make([]int64, nB)
	for i := range kb {
		kb[i] = int64(i)
		s2[i] = int64(i) * 13
	}
	intTable(t, cat, "dimb", map[string][]int64{"kb": kb, "score2": s2}, []string{"kb", "score2"})

	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From: "fact",
		Joins: []JoinSpec{
			{Table: "dima", LeftCol: "a", RightCol: "ka"},
			{Table: "dimb", LeftCol: "b", RightCol: "kb"},
		},
		Select:  []SelectItem{{Col: "id"}, {Col: "score1"}, {Col: "score2"}},
		OrderBy: []expr.SortKey{{Col: "id"}},
	}
	node, info, err := cat.Plan(q, cm, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.JoinOrder) != 3 || !info.JoinOrderExact {
		t.Fatalf("expected an exact 3-table join order, got %v (exact=%v)", info.JoinOrder, info.JoinOrderExact)
	}
	if len(info.Joins) != 2 {
		t.Fatalf("expected 2 join decisions, got %d", len(info.Joins))
	}
	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != nFact {
		t.Fatalf("FK join must keep %d rows, got %d", nFact, rel.N)
	}
	id, _ := rel.Col("id")
	c1, _ := rel.Col("score1")
	c2, _ := rel.Col("score2")
	for i := 0; i < rel.N; i++ {
		row := id.I[i]
		if c1.I[i] != fa[row]*7 || c2.I[i] != fb[row]*13 {
			t.Fatalf("row %d (id %d): scores (%d, %d), want (%d, %d)",
				i, row, c1.I[i], c2.I[i], fa[row]*7, fb[row]*13)
		}
	}
}

// TestPlannerBuildSideSizing verifies the build side comes from catalog
// statistics: when the accumulated side is smaller than the joined
// table, the planner hashes the accumulated side and probes with the
// table.
func TestPlannerBuildSideSizing(t *testing.T) {
	cat := NewCatalog()
	small := workload.UniformInts(3, 500, 200)
	big := workload.UniformInts(4, 50_000, 200)
	intTable(t, cat, "small", map[string][]int64{"k": small}, []string{"k"})
	intTable(t, cat, "big", map[string][]int64{"bk": big, "v": big}, []string{"bk", "v"})
	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From:   "small",
		Joins:  []JoinSpec{{Table: "big", LeftCol: "k", RightCol: "bk"}},
		Select: []SelectItem{{Agg: expr.AggCount, As: "n"}},
	}
	node, info, err := cat.Plan(q, cm, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	ji := info.Joins[0]
	if ji.Build != "small" || ji.Probe != "big" {
		t.Fatalf("expected build=small probe=big, got build=%s probe=%s", ji.Build, ji.Probe)
	}
	if _, err := node.Run(exec.NewCtx()); err != nil {
		t.Fatal(err)
	}
}

// TestPlannerSwapKeepsSelectedKey guards the side-sizing veto: the join
// operators dedupe the right key column out of their output, so a
// build-side swap must never turn a SELECTed key into the dropped one —
// whichever key the query references survives.
func TestPlannerSwapKeepsSelectedKey(t *testing.T) {
	cat := NewCatalog()
	small := workload.UniformInts(8, 500, 200)
	big := workload.UniformInts(9, 50_000, 200)
	intTable(t, cat, "small", map[string][]int64{"k": small}, []string{"k"})
	intTable(t, cat, "big", map[string][]int64{"bk": big, "v": big}, []string{"bk", "v"})
	cm := NewCostModel(energy.DefaultModel())
	for _, sel := range []string{"k", "bk"} {
		q := &Query{
			From:   "small",
			Joins:  []JoinSpec{{Table: "big", LeftCol: "k", RightCol: "bk"}},
			Select: []SelectItem{{Col: sel}, {Col: "v"}},
		}
		node, _, err := cat.Plan(q, cm, MinTime)
		if err != nil {
			t.Fatalf("select %s: %v", sel, err)
		}
		rel, err := node.Run(exec.NewCtx())
		if err != nil {
			t.Fatalf("select %s: %v", sel, err)
		}
		kc, err := rel.Col(sel)
		if err != nil {
			t.Fatalf("select %s: %v", sel, err)
		}
		vc, _ := rel.Col("v")
		for i := 0; i < rel.N; i++ {
			if kc.I[i] != vc.I[i] {
				t.Fatalf("select %s row %d: key %d != v %d (keys are self-valued)", sel, i, kc.I[i], vc.I[i])
			}
		}
	}
}

// TestPlannerEmitsParallelJoin checks the 256Ki threshold: a big join
// plans the radix-partitioned operator with partition/probe byte
// estimates, a small one stays serial.
func TestPlannerEmitsParallelJoin(t *testing.T) {
	cat := NewCatalog()
	const nFact = 300_000
	fk := workload.UniformInts(5, nFact, 2000)
	intTable(t, cat, "bigfact", map[string][]int64{"fk": fk}, []string{"fk"})
	dk := make([]int64, 2000)
	for i := range dk {
		dk[i] = int64(i)
	}
	intTable(t, cat, "dim", map[string][]int64{"dk": dk}, []string{"dk"})
	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From:   "bigfact",
		Joins:  []JoinSpec{{Table: "dim", LeftCol: "fk", RightCol: "dk"}},
		Select: []SelectItem{{Agg: expr.AggCount, As: "n"}},
	}
	node, info, err := cat.Plan(q, cm, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	ji := info.Joins[0]
	if !ji.Partitioned {
		t.Fatalf("big join must plan ParallelJoin: %+v", ji)
	}
	if !strings.Contains(info.Explain, "ParallelJoin") {
		t.Errorf("explain should show the partitioned join:\n%s", info.Explain)
	}
	if ji.PartitionBytes == 0 || ji.ProbeBytes == 0 {
		t.Errorf("partition/probe byte estimates missing: %+v", ji)
	}
	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := rel.Col("n")
	if n.I[0] != nFact {
		t.Fatalf("FK join count = %d, want %d", n.I[0], nFact)
	}

	// Small inputs keep the serial operator.
	_, smallInfo, err := cat.Plan(&Query{
		From:   "dim",
		Joins:  []JoinSpec{{Table: "dim2", LeftCol: "dk", RightCol: "d2"}},
		Select: []SelectItem{{Agg: expr.AggCount, As: "n"}},
	}, cm, MinTime)
	if err == nil {
		t.Fatal("expected unknown-table error for dim2")
	}
	_ = smallInfo
	_, smallInfo2, err := cat.Plan(&Query{
		From:   "dim",
		Joins:  []JoinSpec{{Table: "bigfact", LeftCol: "dk", RightCol: "fk"}},
		Preds:  []expr.Pred{{Col: "fk", Op: vec.EQ, Val: expr.IntVal(7)}},
		Select: []SelectItem{{Agg: expr.AggCount, As: "n"}},
	}, cm, MinTime)
	if err != nil {
		t.Fatal(err)
	}
	if smallInfo2.Joins[0].Partitioned {
		t.Errorf("selective join below the threshold must stay serial: %+v", smallInfo2.Joins[0])
	}
}

// TestPlannerFusedProbeAgg: a join under a GROUP BY plans as the fused
// probe→aggregate pipeline — the planner reports what the executor will
// run, EXPLAIN labels both fused operators, and the estimate sheds the
// pair list and gathered output the sink never writes.
func TestPlannerFusedProbeAgg(t *testing.T) {
	cat := NewCatalog()
	const nFact, nDim = 300_000, 2000
	intTable(t, cat, "bigfact", map[string][]int64{
		"fk": workload.UniformInts(5, nFact, nDim),
		"v":  workload.UniformInts(6, nFact, 1000),
	}, []string{"fk", "v"})
	dk, grp := make([]int64, nDim), make([]int64, nDim)
	for i := range dk {
		dk[i], grp[i] = int64(i), int64(i%7)
	}
	intTable(t, cat, "dim", map[string][]int64{"dk": dk, "grp": grp}, []string{"dk", "grp"})
	cm := NewCostModel(energy.DefaultModel())
	joins := []JoinSpec{{Table: "dim", LeftCol: "fk", RightCol: "dk"}}

	node, info, err := cat.Plan(&Query{
		From: "bigfact", Joins: joins, GroupBy: []string{"grp"},
		Select: []SelectItem{{Col: "grp"}, {Agg: expr.AggCount, As: "n"}, {Agg: expr.AggSum, Col: "v", As: "s"}},
	}, cm, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FusedAgg || !info.Joins[0].FusedAgg || !reflect.DeepEqual(info.FusedProbes, []string{"bigfact"}) {
		t.Fatalf("join under GROUP BY must plan fused probe→aggregate: FusedAgg=%v Joins=%+v FusedProbes=%v",
			info.FusedAgg, info.Joins, info.FusedProbes)
	}
	for _, want := range []string{"HashAgg(grp, COUNT(*), SUM(v)) [fused probe→agg]", "ParallelJoin(fk = dk) [fused]"} {
		if !strings.Contains(info.Explain, want) {
			t.Errorf("explain must label %q:\n%s", want, info.Explain)
		}
	}

	// The same join feeding a projection keeps the pair path and its price.
	_, pairInfo, err := cat.Plan(&Query{
		From: "bigfact", Joins: joins, Select: []SelectItem{{Col: "grp"}, {Col: "v"}},
	}, cm, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if pairInfo.FusedAgg || pairInfo.Joins[0].FusedAgg {
		t.Fatalf("a join feeding a projection must not report the aggregate sink: %+v", pairInfo.Joins[0])
	}
	if info.Est.Energy >= pairInfo.Est.Energy || info.Est.Work.BytesWrittenDRAM+8*nFact > pairInfo.Est.Work.BytesWrittenDRAM {
		t.Errorf("fused estimate must shed the pair write and gather: fused %+v vs pair %+v", info.Est, pairInfo.Est)
	}

	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 7 {
		t.Fatalf("got %d groups, want 7", rel.N)
	}
}

// TestPlannerSameNamedJoinKeys: when both sides spell the key alike, the
// build scan must still emit its own key column — by-name resolution
// used to hand the right key to the left table and the join failed at
// run time with "relation has no column".
func TestPlannerSameNamedJoinKeys(t *testing.T) {
	cat := NewCatalog()
	intTable(t, cat, "l", map[string][]int64{"k": {1, 2, 2, 3}, "a": {10, 20, 30, 40}}, []string{"k", "a"})
	intTable(t, cat, "r", map[string][]int64{"k": {2, 3, 4}, "b": {200, 300, 400}}, []string{"k", "b"})
	node, _, err := cat.Plan(&Query{
		From:   "l",
		Joins:  []JoinSpec{{Table: "r", LeftCol: "k", RightCol: "k"}},
		Select: []SelectItem{{Col: "k"}, {Col: "a"}, {Col: "b"}},
	}, NewCostModel(energy.DefaultModel()), MinTime)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rel.Col("b")
	if rel.N != 3 || !reflect.DeepEqual(b.I, []int64{200, 200, 300}) {
		t.Fatalf("same-named key join returned %d rows, b=%v", rel.N, b.I)
	}
}

// TestPlannerCodeDomainJoin: a string-key join over two sealed tables
// plans in the dictionary code domain, caps the tree with Materialize,
// and returns exactly the rows the raw-table plan returns.
func TestPlannerCodeDomainJoin(t *testing.T) {
	const nFact, nDim = 280_000, 60
	names := make([]string, nDim)
	for i := range names {
		names[i] = "seg" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	factNames := make([]string, nFact)
	amounts := make([]int64, nFact)
	rng := workload.NewRNG(11)
	for i := range factNames {
		factNames[i] = names[rng.Intn(nDim)]
		amounts[i] = int64(i % 97)
	}
	scores := make([]int64, nDim)
	for i := range scores {
		scores[i] = int64(i) * 3
	}

	build := func(seal bool) *Catalog {
		cat := NewCatalog()
		fact := colstore.NewTable("fact", colstore.Schema{
			{Name: "seg", Type: colstore.String},
			{Name: "amount", Type: colstore.Int64},
		})
		if err := fact.Writer().String("seg", factNames...).Close(); err != nil {
			t.Fatal(err)
		}
		if err := fact.Writer().Int64("amount", amounts...).Close(); err != nil {
			t.Fatal(err)
		}
		dim := colstore.NewTable("dim", colstore.Schema{
			{Name: "segname", Type: colstore.String},
			{Name: "score", Type: colstore.Int64},
		})
		if err := dim.Writer().String("segname", names...).Close(); err != nil {
			t.Fatal(err)
		}
		if err := dim.Writer().Int64("score", scores...).Close(); err != nil {
			t.Fatal(err)
		}
		if seal {
			if err := fact.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := dim.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		cat.Add(colstore.OneShard(fact))
		cat.Add(colstore.OneShard(dim))
		return cat
	}

	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From:    "fact",
		Joins:   []JoinSpec{{Table: "dim", LeftCol: "seg", RightCol: "segname"}},
		Select:  []SelectItem{{Col: "seg"}, {Agg: expr.AggSum, Col: "score", As: "s"}, {Agg: expr.AggCount, As: "n"}},
		GroupBy: []string{"seg"},
	}
	run := func(cat *Catalog) (*exec.Relation, *PlanInfo, energy.Counters) {
		node, info, err := cat.Plan(q, cm, MinTime)
		if err != nil {
			t.Fatal(err)
		}
		ctx := exec.NewCtx()
		ctx.Lease = exec.NewLease(2)
		rel, err := node.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rel, info, ctx.Meter.Snapshot()
	}
	sealedRel, sealedInfo, sealedWork := run(build(true))
	rawRel, rawInfo, rawWork := run(build(false))

	if !sealedInfo.Joins[0].CodeDomain {
		t.Fatalf("sealed string join must plan in the code domain: %+v", sealedInfo.Joins[0])
	}
	if !strings.Contains(sealedInfo.Explain, "Materialize") {
		t.Errorf("code-domain plan must cap with Materialize:\n%s", sealedInfo.Explain)
	}
	if rawInfo.Joins[0].CodeDomain {
		t.Fatalf("raw tables must not plan a code-domain join")
	}
	sortRel := func(r *exec.Relation) [][3]any {
		seg, _ := r.Col("seg")
		s, _ := r.Col("s")
		n, _ := r.Col("n")
		rows := make([][3]any, r.N)
		for i := 0; i < r.N; i++ {
			rows[i] = [3]any{seg.S[i], s.I[i], n.I[i]}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a][0].(string) < rows[b][0].(string) })
		return rows
	}
	if !reflect.DeepEqual(sortRel(sealedRel), sortRel(rawRel)) {
		t.Fatal("code-domain plan diverges from raw plan")
	}
	if sealedWork.BytesReadDRAM >= rawWork.BytesReadDRAM {
		t.Errorf("sealed code-domain plan must stream fewer DRAM bytes: %d vs %d",
			sealedWork.BytesReadDRAM, rawWork.BytesReadDRAM)
	}
}
