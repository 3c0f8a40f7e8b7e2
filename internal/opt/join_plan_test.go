package opt

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
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
	w := tab.Writer()
	for _, n := range order {
		w.Int64(n, cols[n]...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	cat.Add(tab)
	return tab
}

// merge moves a loaded table's delta into the main.
func merge(t *colstore.Table) error {
	_, err := t.Merge(0)
	return err
}

// TestPlannerJoinOrderDP plans a three-table query and checks that the
// join-ordering pass ran the exact DP, recorded its order, and that the
// reordered (and possibly side-swapped) plan still returns the right
// rows.
func TestPlannerJoinOrderDP(t *testing.T) {
	cat := NewCatalog()
	const nFact, nA, nB = 2000, 100, 50
	fa := synth.UniformInts(1, nFact, nA)
	fb := synth.UniformInts(2, nFact, nB)
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
	node, info, err := cat.Plan(q, cm)
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
	small := synth.UniformInts(3, 500, 200)
	big := synth.UniformInts(4, 50_000, 200)
	intTable(t, cat, "small", map[string][]int64{"k": small}, []string{"k"})
	intTable(t, cat, "big", map[string][]int64{"bk": big, "v": big}, []string{"bk", "v"})
	cm := NewCostModel(energy.DefaultModel())
	q := &Query{
		From:   "small",
		Joins:  []JoinSpec{{Table: "big", LeftCol: "k", RightCol: "bk"}},
		Select: []SelectItem{{Agg: expr.AggCount, As: "n"}},
	}
	node, info, err := cat.Plan(q, cm)
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
	small := synth.UniformInts(8, 500, 200)
	big := synth.UniformInts(9, 50_000, 200)
	intTable(t, cat, "small", map[string][]int64{"k": small}, []string{"k"})
	intTable(t, cat, "big", map[string][]int64{"bk": big, "v": big}, []string{"bk", "v"})
	cm := NewCostModel(energy.DefaultModel())
	for _, sel := range []string{"k", "bk"} {
		q := &Query{
			From:   "small",
			Joins:  []JoinSpec{{Table: "big", LeftCol: "k", RightCol: "bk"}},
			Select: []SelectItem{{Col: sel}, {Col: "v"}},
		}
		node, _, err := cat.Plan(q, cm)
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

// TestPlannerOneJoinAtEverySize (the twin of TestPlannerOneScanAtEverySize):
// there is one join, so a 10-row and a 1M-row catalog plan the same node
// type and the same EXPLAIN shape — a fused probe on every key type —
// with no row threshold deciding anything; the only thing size
// moves is whether the estimate includes a partition pass, and that comes
// from the executor's own rule (exec.RadixBits), at its own boundary.
func TestPlannerOneJoinAtEverySize(t *testing.T) {
	cm := NewCostModel(energy.DefaultModel())
	// fact(fk, seg, v) ⋈ dim(dk, name, grp): nFact rows over nDim keys.
	build := func(nFact, nDim int) *Catalog {
		cat := NewCatalog()
		fk, seg, v := make([]int64, nFact), make([]string, nFact), make([]int64, nFact)
		for i := range fk {
			fk[i], seg[i], v[i] = int64(i%nDim), fmt.Sprintf("s%04d", i%nDim), int64(i%97)
		}
		dk, name, grp := make([]int64, nDim), make([]string, nDim), make([]int64, nDim)
		for i := range dk {
			dk[i], name[i], grp[i] = int64(i), fmt.Sprintf("s%04d", i), int64(i%7)
		}
		fact := colstore.NewTable("fact", colstore.Schema{
			{Name: "fk", Type: colstore.Int64}, {Name: "seg", Type: colstore.String}, {Name: "v", Type: colstore.Int64}})
		dim := colstore.NewTable("dim", colstore.Schema{
			{Name: "dk", Type: colstore.Int64}, {Name: "name", Type: colstore.String}, {Name: "grp", Type: colstore.Int64}})
		for _, err := range []error{
			fact.Writer().Int64("fk", fk...).String("seg", seg...).Int64("v", v...).Close(),
			dim.Writer().Int64("dk", dk...).String("name", name...).Int64("grp", grp...).Close(),
			merge(fact), merge(dim),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		cat.Add(fact)
		cat.Add(dim)
		return cat
	}
	queries := map[string]*Query{
		"int-key count": {From: "fact", Joins: []JoinSpec{{Table: "dim", LeftCol: "fk", RightCol: "dk"}},
			Select: []SelectItem{{Agg: expr.AggCount, As: "n"}}},
		"int-key group": {From: "fact", Joins: []JoinSpec{{Table: "dim", LeftCol: "fk", RightCol: "dk"}}, GroupBy: []string{"grp"},
			Select: []SelectItem{{Col: "grp"}, {Agg: expr.AggCount, As: "n"}, {Agg: expr.AggSum, Col: "v", As: "s"}}},
		"dict-key pairs": {From: "fact", Joins: []JoinSpec{{Table: "dim", LeftCol: "seg", RightCol: "name"}},
			Select: []SelectItem{{Col: "seg"}, {Col: "grp"}, {Col: "v"}}},
	}
	tiny, huge := build(10, 4), build(1_000_000, 5000)
	for name, q := range queries {
		node, small, err := tiny.Plan(q, cm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, big, err := huge.Plan(q, cm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if small.Explain != big.Explain {
			t.Errorf("%s: 10 rows and 1M rows must plan the same tree:\n%s\nvs\n%s", name, small.Explain, big.Explain)
		}
		if !strings.Contains(small.Explain, "Join(") || !strings.Contains(small.Explain, ") [fused]") {
			t.Errorf("%s: explain should show the one join with a fused probe:\n%s", name, small.Explain)
		}
		sj, bj := small.Joins[0], big.Joins[0]
		if sj.FusedProbe != bj.FusedProbe || sj.FusedAgg != bj.FusedAgg || !sj.FusedProbe {
			t.Errorf("%s: join decisions differ by size:\n%+v\n%+v", name, sj, bj)
		}
		if !reflect.DeepEqual(small.FusedProbes, []string{"fact"}) || !reflect.DeepEqual(big.FusedProbes, []string{"fact"}) {
			t.Errorf("%s: FusedProbes %v / %v", name, small.FusedProbes, big.FusedProbes)
		}
		// Size moves exactly one thing: the partition pass and its bytes.
		if sj.Partitioned || sj.PartitionBytes != 0 || !bj.Partitioned || bj.PartitionBytes == 0 || bj.ProbeBytes == 0 {
			t.Errorf("%s: partition estimate must follow the build size alone:\n%+v\n%+v", name, sj, bj)
		}
		rel, err := node.Run(exec.NewCtx())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel.N == 0 {
			t.Errorf("%s: tiny plan returned nothing", name)
		}
	}

	// The big join runs, and counts every fact row exactly once.
	node, _, err := huge.Plan(queries["int-key count"], cm)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := node.Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rel.Col("n"); n.I[0] != 1_000_000 {
		t.Fatalf("FK join count = %d, want 1000000", n.I[0])
	}

	// EstimateHashJoin is continuous across the executor's one internal
	// boundary except for exactly the partition-pass terms: past it the
	// estimate is the linear continuation plus RadixBits' scatter.
	at := func(b float64) energy.Counters { return EstimateHashJoin(1e6, b, 1e6, 4) }
	below, edge, above := at(4094), at(4095), at(4096)
	if exec.RadixBits(4095) != 0 || exec.RadixBits(4096) == 0 {
		t.Fatal("test assumes the boundary at 4096 build rows")
	}
	step := func(hi, lo energy.Counters) [4]int64 {
		return [4]int64{int64(hi.BytesReadDRAM - lo.BytesReadDRAM), int64(hi.BytesWrittenDRAM - lo.BytesWrittenDRAM),
			int64(hi.CacheMisses - lo.CacheMisses), int64(hi.Instructions - lo.Instructions)}
	}
	lin, jump := step(edge, below), step(above, edge)
	partition := [4]int64{4096 * 12, 4096 * 12, 4096 / 4, 4096 * 6}
	for i := range jump {
		// ±4: each of a counter's terms truncates to an integer on its own.
		if d := jump[i] - lin[i] - partition[i]; d < -4 || d > 4 {
			t.Errorf("counter %d: step across the boundary %d, want linear %d + partition %d",
				i, jump[i], lin[i], partition[i])
		}
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
		"fk": synth.UniformInts(5, nFact, nDim),
		"v":  synth.UniformInts(6, nFact, 1000),
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
	}, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !info.FusedAgg || !info.Joins[0].FusedAgg || !reflect.DeepEqual(info.FusedProbes, []string{"bigfact"}) {
		t.Fatalf("join under GROUP BY must plan fused probe→aggregate: FusedAgg=%v Joins=%+v FusedProbes=%v",
			info.FusedAgg, info.Joins, info.FusedProbes)
	}
	for _, want := range []string{"HashAgg(grp, COUNT(*), SUM(v)) [fused probe→agg]", "Join(fk = dk) [fused]"} {
		if !strings.Contains(info.Explain, want) {
			t.Errorf("explain must label %q:\n%s", want, info.Explain)
		}
	}

	// The same join feeding a projection keeps the pair path and its price.
	_, pairInfo, err := cat.Plan(&Query{
		From: "bigfact", Joins: joins, Select: []SelectItem{{Col: "grp"}, {Col: "v"}},
	}, cm)
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
	}, NewCostModel(energy.DefaultModel()))
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

// TestPlannerCodeDomainJoin: a string-key join plans the same tree over
// sealed and over never-sealed tables — the probe fused, the keys joined
// as codes, nothing widening them afterwards — returns the same rows
// (strings decoded) either way, and streams fewer DRAM bytes sealed.
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
		if err := fact.Writer().
			String("seg", factNames...).
			Int64("amount", amounts...).
			Close(); err != nil {
			t.Fatal(err)
		}
		dim := colstore.NewTable("dim", colstore.Schema{
			{Name: "segname", Type: colstore.String},
			{Name: "score", Type: colstore.Int64},
		})
		if err := dim.Writer().
			String("segname", names...).
			Int64("score", scores...).
			Close(); err != nil {
			t.Fatal(err)
		}
		if seal {
			if _, err := fact.Merge(0); err != nil {
				t.Fatal(err)
			}
			if _, err := dim.Merge(0); err != nil {
				t.Fatal(err)
			}
		}
		cat.Add(fact)
		cat.Add(dim)
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
		node, info, err := cat.Plan(q, cm)
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
	sealedCat, rawCat := build(true), build(false)
	sealedRel, sealedInfo, sealedWork := run(sealedCat)
	rawRel, rawInfo, rawWork := run(rawCat)
	// The probe pass streams the key column's compressed bytes: the key's
	// scan bytes per value for every probe row, fewer sealed than raw.
	for _, arm := range []struct {
		cat  *Catalog
		info *PlanInfo
	}{{sealedCat, sealedInfo}, {rawCat, rawInfo}} {
		st, err := arm.cat.Stats("fact")
		if err != nil {
			t.Fatal(err)
		}
		ji := arm.info.Joins[0]
		if want := uint64(ji.EstProbeRows * st.Cols["seg"].ScanBytesPerValue); ji.ProbeBytes != want || want == 0 {
			t.Errorf("ProbeBytes %d, want the key's compressed bytes %d", ji.ProbeBytes, want)
		}
	}
	if sealedInfo.Joins[0].ProbeBytes >= rawInfo.Joins[0].ProbeBytes || sealedInfo.Joins[0].ProbeBytes >= nFact*8 {
		t.Errorf("sealed ProbeBytes %d must undercut raw %d and 8 bytes a row", sealedInfo.Joins[0].ProbeBytes, rawInfo.Joins[0].ProbeBytes)
	}

	if sealedInfo.Explain != rawInfo.Explain || !sealedInfo.Joins[0].FusedProbe || !rawInfo.Joins[0].FusedProbe {
		t.Fatalf("a string-key join must plan one fused tree on any storage:\n%s\nvs\n%s", sealedInfo.Explain, rawInfo.Explain)
	}
	sortRel := func(r *exec.Relation) [][3]any {
		seg, _ := r.Col("seg")
		s, _ := r.Col("s")
		n, _ := r.Col("n")
		rows := make([][3]any, r.N)
		for i := 0; i < r.N; i++ {
			rows[i] = [3]any{seg.Str(i), s.I[i], n.I[i]}
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
