package experiments

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/vec"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E24",
		Title: "fused operate-on-compressed pipelines: filter→aggregate, filter→probe and probe→aggregate in one pass per morsel (extension)",
		Claim: "eliminating the materialized intermediate eliminates its movement: fusing the filter with the aggregation (RLE runs folding run-at-a-time, dictionary GROUP BY in the code domain), with the join probe (selected key codes streaming straight from the segments), or the probe with the aggregation above it (matches folding straight into partial aggregates — no pair list, no gathered join relation) returns byte-identical relations at every DOP while touching strictly fewer DRAM bytes, hence less energy, across codecs, selectivities, and group cardinalities",
		Run:   runE24,
	})
}

// E24Row is one (pipeline arm, path, DOP) execution.
type E24Row struct {
	Arm   string // workload arm: group codec/cardinality + selectivity, or probe
	Path  string // "fused" or "unfused" (legacy materialize-then-consume)
	DOP   int
	Rows  int
	Bytes uint64 // DRAM bytes streamed by the whole plan
	J     energy.Joules
	Wall  time.Duration
}

// SavingsX returns the energy ratio unfused/fused (higher is better).
func e24Savings(unf, fus energy.Joules) string {
	if fus == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(unf/fus))
}

// e24Fixture is the E24 data set: a fact table whose group/key columns
// seal into the codecs under test, and a small region dimension whose
// sealed dictionary is a distinct backing slice from the fact table's —
// so the fused probe exercises the build-code translation.
type e24Fixture struct {
	fact *colstore.Table
	dim  *colstore.Table
	qs   []int64 // sorted copy of "packed" for percentile predicate cuts
}

// cut returns the "packed" predicate literal for a ~sel-selective filter.
func (f *e24Fixture) cut(sel float64) int64 {
	return f.qs[int(float64(len(f.qs)-1)*sel)]
}

// newE24Fixture builds and seals the tables, verifying the seal advisor
// chose the codec each column name claims (the E19 shapes, extended with
// a 1024-cardinality group column for the cardinality axis).
func newE24Fixture(n int) (*e24Fixture, error) {
	packed := synth.UniformInts(22, n, 1<<20)
	rcodes := synth.UniformInts(23, n, int64(len(workload.RegionNames)))
	regions := make([]string, n)
	for i, c := range rcodes {
		regions[i] = workload.RegionNames[c]
	}
	fact := colstore.NewTable("events", colstore.Schema{
		{Name: "rle", Type: colstore.Int64},
		{Name: "lowcard", Type: colstore.Int64},
		{Name: "hicard", Type: colstore.Int64},
		{Name: "sorted", Type: colstore.Int64},
		{Name: "packed", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
	})
	err := fact.Writer().
		Int64("rle", synth.RunsInts(19, n, 16, 64)...).
		Int64("lowcard", synth.UniformInts(20, n, 32)...).
		Int64("hicard", synth.UniformInts(25, n, 1024)...).
		Int64("sorted", synth.SortedInts(21, n, 8)...).
		Int64("packed", packed...).
		String("region", regions...).
		Close()
	if err != nil {
		return nil, err
	}
	if err := fact.Seal(); err != nil {
		return nil, err
	}
	for _, c := range []struct{ col, want string }{
		{"rle", "rle"}, {"lowcard", "dict"}, {"sorted", "delta"}, {"packed", "bitpack"},
	} {
		ic, err := fact.IntCol(c.col)
		if err != nil {
			return nil, err
		}
		if codec := dominantCodec(ic.Storage().Segments); codec != c.want {
			return nil, fmt.Errorf("experiments: E24 column %s: advisor chose %s, expected %s",
				c.col, codec, c.want)
		}
	}
	weights := make([]int64, len(workload.RegionNames))
	for i := range weights {
		weights[i] = int64(i+1) * 100
	}
	dim := colstore.NewTable("regions", colstore.Schema{
		{Name: "region", Type: colstore.String},
		{Name: "weight", Type: colstore.Int64},
	})
	err = dim.Writer().
		String("region", workload.RegionNames[:]...).
		Int64("weight", weights...).
		Close()
	if err != nil {
		return nil, err
	}
	if err := dim.Seal(); err != nil {
		return nil, err
	}
	qs := append([]int64(nil), packed...)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return &e24Fixture{fact: fact, dim: dim, qs: qs}, nil
}

// scan builds the fact-table scan both arms share.  The consumers fuse
// exactly a *exec.Scan child, so the unfused control arm reaches the
// materializing pipeline structurally: its scan sits behind an opaque
// wrapper node and the consumer sees only a relation source.
func (f *e24Fixture) scan(selCols []string, sel float64, unfused bool) exec.Node {
	s := &exec.Scan{Source: f.fact, Select: selCols,
		Preds: []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(f.cut(sel))}}}
	if unfused {
		return struct{ exec.Node }{s}
	}
	return s
}

// aggNode builds a filter→aggregate plan; unfused hides the scan.
func (f *e24Fixture) aggNode(groupBy, selCols []string, aggs []expr.AggSpec, sel float64, unfused bool) exec.Node {
	return &exec.HashAgg{Child: f.scan(selCols, sel, unfused), GroupBy: groupBy, Aggs: aggs}
}

// probeNode builds a filter→probe plan over the region string key; both
// paths join its codes, so the comparison isolates the fused key
// streaming.
func (f *e24Fixture) probeNode(sel float64, unfused bool) exec.Node {
	return &exec.Join{
		Left:     f.scan([]string{"region", "lowcard", "packed"}, sel, unfused),
		Right:    &exec.Scan{Source: f.dim},
		LeftKey:  "region",
		RightKey: "region",
	}
}

// probeAggNode puts a GROUP BY over probeNode, shaped as the planner
// shapes it: per region, the match count, a build-side sum and a
// probe-side max.  Fused, the probe's matches fold straight into partial
// aggregates; unfused, the join emits pairs, gathers its relation, and
// the generic HashAgg re-reads it all.
func (f *e24Fixture) probeAggNode(sel float64, unfused bool) exec.Node {
	return &exec.HashAgg{
		Child:   f.probeNode(sel, unfused),
		GroupBy: []string{"region"},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCount},
			{Func: expr.AggSum, Col: "weight"},
			{Func: expr.AggMax, Col: "packed"}},
	}
}

// e24Arm is one workload arm: a plan builder parameterized by path.
type e24Arm struct {
	name string
	mk   func(unfused bool) exec.Node
}

// e24Arms sweeps group codec × cardinality × selectivity for the fused
// aggregate, plus the fused probe — feeding a gather, and feeding an
// aggregate — at partitioned-join selectivities.
func e24Arms(f *e24Fixture) []e24Arm {
	var arms []e24Arm
	groups := []struct {
		col  string
		card int
		sel  []string
		aggs []expr.AggSpec
	}{
		{"rle", 16, []string{"rle", "sorted", "packed"}, []expr.AggSpec{
			{Func: expr.AggSum, Col: "rle"}, // run-at-a-time closed form
			{Func: expr.AggCount},
			{Func: expr.AggMin, Col: "sorted"}}},
		{"lowcard", 32, []string{"lowcard", "sorted", "packed"}, []expr.AggSpec{
			{Func: expr.AggSum, Col: "sorted"},
			{Func: expr.AggAvg, Col: "packed"},
			{Func: expr.AggCount}}},
		{"hicard", 1024, []string{"hicard", "packed"}, []expr.AggSpec{
			{Func: expr.AggCount},
			{Func: expr.AggMax, Col: "packed"}}},
	}
	for _, g := range groups {
		for _, sel := range []float64{0.10, 0.50, 0.90} {
			g := g
			sel := sel
			arms = append(arms, e24Arm{
				name: fmt.Sprintf("agg/%s(card%d)/sel=%.2f", g.col, g.card, sel),
				mk: func(unfused bool) exec.Node {
					return f.aggNode([]string{g.col}, g.sel, g.aggs, sel, unfused)
				},
			})
		}
	}
	arms = append(arms, e24Arm{
		name: "agg/global/sel=0.50",
		mk: func(unfused bool) exec.Node {
			return f.aggNode(nil, []string{"rle", "sorted", "packed"}, []expr.AggSpec{
				{Func: expr.AggSum, Col: "rle"},
				{Func: expr.AggMax, Col: "sorted"},
				{Func: expr.AggCount}}, 0.50, unfused)
		},
	})
	for _, sel := range []float64{0.25, 0.50, 0.90} {
		sel := sel
		arms = append(arms, e24Arm{
			name: fmt.Sprintf("probe/region/sel=%.2f", sel),
			mk:   func(unfused bool) exec.Node { return f.probeNode(sel, unfused) },
		}, e24Arm{
			name: fmt.Sprintf("probe-agg/region/sel=%.2f", sel),
			mk:   func(unfused bool) exec.Node { return f.probeAggNode(sel, unfused) },
		})
	}
	return arms
}

// E24BenchArm is one fused/unfused plan pair for the root benchmark.
type E24BenchArm struct {
	Name    string
	Fused   exec.Node
	Unfused exec.Node
}

// E24BenchArms exports the headline arms (RLE aggregate, dictionary
// aggregate, code-domain probe, probe→aggregate, all at 50% selectivity)
// for BenchmarkE24FusedPipeline.
func E24BenchArms(n int) ([]E24BenchArm, error) {
	f, err := newE24Fixture(n)
	if err != nil {
		return nil, err
	}
	var out []E24BenchArm
	for _, arm := range e24Arms(f) {
		switch arm.name {
		case "agg/rle(card16)/sel=0.50", "agg/lowcard(card32)/sel=0.50", "probe/region/sel=0.50", "probe-agg/region/sel=0.50":
			out = append(out, E24BenchArm{Name: arm.name, Fused: arm.mk(false), Unfused: arm.mk(true)})
		}
	}
	if len(out) != 4 {
		return nil, fmt.Errorf("experiments: E24 bench arms drifted: have %d, want 4", len(out))
	}
	return out, nil
}

// E24PlannerDecisions plans a fusable aggregate query, a fusable join
// query, and that join under a GROUP BY through the optimizer and
// returns their PlanInfos, so callers can assert the planner recognized
// (and priced) the fusions the executor will actually run.
func E24PlannerDecisions(n int) (agg, join, joinAgg *opt.PlanInfo, err error) {
	f, err := newE24Fixture(n)
	if err != nil {
		return nil, nil, nil, err
	}
	cat := opt.NewCatalog()
	cat.Add(f.fact)
	cat.Add(f.dim)
	cm := opt.NewCostModel(energy.DefaultModel())
	pred := []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(f.cut(0.50))}}
	_, agg, err = cat.Plan(&opt.Query{
		From:  "events",
		Preds: pred,
		Select: []opt.SelectItem{
			{Col: "lowcard"},
			{Col: "sorted", Agg: expr.AggSum},
		},
		GroupBy: []string{"lowcard"},
	}, cm)
	if err != nil {
		return nil, nil, nil, err
	}
	joins := []opt.JoinSpec{{Table: "regions", LeftCol: "region", RightCol: "region"}}
	_, join, err = cat.Plan(&opt.Query{
		From:   "events",
		Joins:  joins,
		Preds:  pred,
		Select: []opt.SelectItem{{Col: "region"}, {Col: "weight"}, {Col: "packed"}},
	}, cm)
	if err != nil {
		return nil, nil, nil, err
	}
	_, joinAgg, err = cat.Plan(&opt.Query{
		From:  "events",
		Joins: joins,
		Preds: pred,
		Select: []opt.SelectItem{
			{Col: "region"},
			{Agg: expr.AggCount},
			{Col: "weight", Agg: expr.AggSum},
			{Col: "packed", Agg: expr.AggMax},
		},
		GroupBy: []string{"region"},
	}, cm)
	if err != nil {
		return nil, nil, nil, err
	}
	return agg, join, joinAgg, nil
}

// E24Sweep runs every arm fused and unfused at every DOP, enforcing the
// determinism contract as it goes: within each path, relations and
// counters are identical at every DOP; across paths, relations are
// byte-identical; and the fused path streams strictly fewer DRAM bytes
// and costs strictly less energy than the legacy pipeline it replaces.
func E24Sweep(n int, dops []int) ([]E24Row, error) {
	f, err := newE24Fixture(n)
	if err != nil {
		return nil, err
	}
	model := energy.DefaultModel()
	pstate := model.Core.MaxPState()
	var out []E24Row
	for _, arm := range e24Arms(f) {
		var unfRel, fusRel *exec.Relation
		var unfWork, fusWork energy.Counters
		for _, unfused := range []bool{true, false} {
			path := "fused"
			if unfused {
				path = "unfused"
			}
			node := arm.mk(unfused)
			var baseRel *exec.Relation
			var baseWork energy.Counters
			for i, dop := range dops {
				ctx := exec.NewCtx()
				ctx.Lease = exec.NewLease(dop)
				start := time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
				rel, err := node.Run(ctx)
				if err != nil {
					return nil, err
				}
				wall := time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
				work := ctx.Meter.Snapshot()
				if i == 0 {
					baseRel, baseWork = rel, work
				} else {
					if !reflect.DeepEqual(rel, baseRel) {
						return nil, fmt.Errorf("experiments: E24 %s %s DOP %d relation differs from DOP %d",
							arm.name, path, dop, dops[0])
					}
					if work != baseWork {
						return nil, fmt.Errorf("experiments: E24 %s %s DOP %d counters differ from DOP %d",
							arm.name, path, dop, dops[0])
					}
				}
				out = append(out, E24Row{
					Arm: arm.name, Path: path, DOP: dop, Rows: rel.N,
					Bytes: work.BytesReadDRAM,
					J:     model.DynamicEnergy(work, pstate).Total(),
					Wall:  wall,
				})
			}
			if unfused {
				unfRel, unfWork = baseRel, baseWork
			} else {
				fusRel, fusWork = baseRel, baseWork
			}
		}
		if !fusRel.Equal(unfRel) {
			return nil, fmt.Errorf("experiments: E24 %s: fused relation diverges from the legacy pipeline", arm.name)
		}
		if fusWork.BytesReadDRAM >= unfWork.BytesReadDRAM {
			return nil, fmt.Errorf("experiments: E24 %s: fused pipeline must stream fewer DRAM bytes: %d vs %d",
				arm.name, fusWork.BytesReadDRAM, unfWork.BytesReadDRAM)
		}
		fusJ := model.DynamicEnergy(fusWork, pstate).Total()
		unfJ := model.DynamicEnergy(unfWork, pstate).Total()
		if fusJ >= unfJ {
			return nil, fmt.Errorf("experiments: E24 %s: fused pipeline must cost less energy: %v vs %v",
				arm.name, fusJ, unfJ)
		}
	}
	return out, nil
}

func runE24(w io.Writer) error {
	const n = 1 << 19
	rows, err := E24Sweep(n, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	// One line per (arm, path) — the DOP sweep is an invariance check, so
	// per-DOP rows would print four identical byte/J columns.
	tw := newTable(w)
	fmt.Fprintln(tw, "arm\trows\tunfused-bytes\tfused-bytes\tunfused-J\tfused-J\tsavings")
	byArm := map[string]map[string]E24Row{}
	var order []string
	for _, r := range rows {
		if r.DOP != 1 {
			continue
		}
		if byArm[r.Arm] == nil {
			byArm[r.Arm] = map[string]E24Row{}
			order = append(order, r.Arm)
		}
		byArm[r.Arm][r.Path] = r
	}
	for _, arm := range order {
		unf, fus := byArm[arm]["unfused"], byArm[arm]["fused"]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%v\t%v\t%s\n",
			arm, fus.Rows, unf.Bytes, fus.Bytes, unf.J, fus.J, e24Savings(unf.J, fus.J))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	aggInfo, joinInfo, joinAggInfo, err := E24PlannerDecisions(n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nplanner: FusedAgg=%v FusedProbes=%v join+GROUP BY FusedAgg=%v (the optimizer recognizes and prices all three fusions)\n",
		aggInfo.FusedAgg, joinInfo.FusedProbes, joinAggInfo.Joins[0].FusedAgg)
	fmt.Fprintln(w, "\nshape: every arm returns byte-identical relations and DOP-invariant counters on")
	fmt.Fprintln(w, "both paths; the fused pipeline never materializes the filtered intermediate, so")
	fmt.Fprintln(w, "it streams strictly fewer DRAM bytes and costs strictly less energy — RLE groups")
	fmt.Fprintln(w, "fold run-at-a-time in O(runs), dictionary groups aggregate as flat code arrays,")
	fmt.Fprintln(w, "probe keys stream from the segments as 8-byte codes, and a join under a GROUP BY")
	fmt.Fprintln(w, "folds its matches into partial aggregates without writing a pair or a joined row.")
	return nil
}
