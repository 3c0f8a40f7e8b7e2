package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// TestProbeEstimateIsExecFormula: the planner prices a join's lookup
// phase and the fold of its matches with the executor's own formulas
// (exec.ProbeWork, exec.ProbeFoldWork at the fold shape it planned), so
// its estimate evaluated at the counts a run actually had is exactly what
// that run metered.  Shapes follow the join differential generator
// (core's TestDifferentialRandomJoins): BIGINT and string keys, sealed and
// unsealed tables, a dimension with missing and duplicated keys, either
// side as the probe side, predicates on either side, and the pair sink
// beside folds grouped by a build string, by a probe string, or not at
// all.  The run's matches are checked against a nested-loop count.
func TestProbeEstimateIsExecFormula(t *testing.T) {
	cm := NewCostModel(energy.DefaultModel())
	seen := map[string]int{}
	for _, nOrders := range []int{3000, 70_000} {
		for _, nCust := range []int{300, 5000} {
			for _, sealed := range []bool{true, false} {
				probeEstimateShapes(t, cm, nOrders, nCust, sealed, seen)
			}
		}
	}
	for _, shape := range []string{"probe=orders", "probe=customers", "fold", "pairs"} {
		if seen[shape] == 0 {
			t.Errorf("no statement planned the %q shape (%v)", shape, seen)
		}
	}
}

func probeEstimateShapes(t *testing.T, cm *CostModel, nOrders, nCust int, sealed bool, seen map[string]int) {
	rng := workload.NewRNG(uint64(nOrders*31 + nCust))
	segments := []string{"AUTO", "RETAIL", "WHOLESALE", "PUBLIC"}
	name := func(k int64) string { return fmt.Sprintf("c%05d", k) }
	// Keys drawn from a space 25% wider than the dimension: some repeat,
	// some never appear, some orders dangle.
	span := nCust + nCust/4 + 1
	ckey, tier, cname, seg := make([]int64, nCust), make([]int64, nCust), make([]string, nCust), make([]string, nCust)
	for i := range ckey {
		ckey[i] = int64(rng.Intn(span))
		tier[i], cname[i], seg[i] = int64(rng.Intn(5)), name(ckey[i]), segments[rng.Intn(len(segments))]
	}
	custkey, qty, oname, region := make([]int64, nOrders), make([]int64, nOrders), make([]string, nOrders), make([]string, nOrders)
	for i := range custkey {
		custkey[i] = int64(rng.Intn(span))
		qty[i], oname[i], region[i] = int64(rng.Intn(50)), name(custkey[i]), workload.RegionNames[rng.Intn(len(workload.RegionNames))]
	}
	orders := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64}, {Name: "qty", Type: colstore.Int64},
		{Name: "cname", Type: colstore.String}, {Name: "region", Type: colstore.String}})
	customers := colstore.NewTable("customers", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64}, {Name: "tier", Type: colstore.Int64},
		{Name: "name", Type: colstore.String}, {Name: "segment", Type: colstore.String}})
	for _, err := range []error{
		orders.Writer().Int64("custkey", custkey...).Int64("qty", qty...).String("cname", oname...).String("region", region...).Close(),
		customers.Writer().Int64("ckey", ckey...).Int64("tier", tier...).String("name", cname...).String("segment", seg...).Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sealed {
		if err := orders.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := customers.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	byKey := map[int64][]int{} // the customers of each key
	for c, k := range ckey {
		byKey[k] = append(byKey[k], c)
	}
	cat := NewCatalog()
	cat.Add(orders)
	cat.Add(customers)

	for trial := 0; trial < 16; trial++ {
		join := JoinSpec{Table: "customers", LeftCol: "custkey", RightCol: "ckey"}
		if trial%2 == 1 {
			join = JoinSpec{Table: "customers", LeftCol: "cname", RightCol: "name"}
		}
		var preds []expr.Pred
		switch trial % 3 {
		case 1:
			preds = []expr.Pred{{Col: "qty", Op: vec.LT, Val: expr.IntVal(int64(rng.Intn(50)))}}
		case 2:
			preds = []expr.Pred{{Col: "tier", Op: vec.EQ, Val: expr.IntVal(int64(rng.Intn(5)))}}
		}
		q := &Query{From: "orders", Joins: []JoinSpec{join}, Preds: preds,
			Select: []SelectItem{{Agg: expr.AggCount, As: "n"}, {Agg: expr.AggSum, Col: "qty", As: "s"}}}
		switch trial % 4 {
		case 0:
			q.GroupBy = []string{"segment"}
		case 1:
			q.GroupBy = []string{"region"}
		case 3:
			q.Select = []SelectItem{{Col: "qty"}, {Col: "tier"}, {Col: "segment"}}
		}
		if q.GroupBy != nil {
			q.Select = append([]SelectItem{{Col: q.GroupBy[0]}}, q.Select...)
		}
		node, info, err := cat.Plan(q, cm)
		if err != nil {
			t.Fatal(err)
		}
		ctx := exec.NewCtx()
		ctx.Lease = exec.NewLease(2)
		if _, err := node.Run(ctx); err != nil {
			t.Fatal(err)
		}
		ji := info.Joins[0]
		label := fmt.Sprintf("orders=%d customers=%d sealed=%v trial %d (%s)", nOrders, nCust, sealed, trial, ji.Probe)
		seen["probe="+ji.Probe]++
		seen[map[bool]string{true: "fold", false: "pairs"}[ji.FusedAgg]]++

		var lookup, fold *exec.OpReport
		for i := range ctx.OpReports {
			switch op := &ctx.OpReports[i]; {
			case op.Probe != nil:
				lookup = op
			case strings.HasSuffix(op.Label, " [probe fold]"):
				fold = op
			}
		}
		if lookup == nil || (fold != nil) != ji.FusedAgg {
			t.Fatalf("%s: lookup phase %v, fold phase %v, planned fold %v", label, lookup != nil, fold != nil, ji.FusedAgg)
		}
		actual := *lookup.Probe
		if got := exec.ProbeWork(actual); got != lookup.Work {
			t.Fatalf("%s: estimate at the actual counts %+v\n%+v\nmetered %+v", label, actual, got, lookup.Work)
		}
		if fold != nil {
			if got := exec.ProbeFoldWork(ji.Fold, actual.Matches, actual.Touches); got != fold.Work {
				t.Fatalf("%s: fold estimate at the actual counts %+v\n%+v\nmetered %+v", label, actual, got, fold.Work)
			}
		}
		// The counts are the run's: its matches are the nested loop's, and
		// a lookup resolves at least one selected row.
		want := 0
		for o := range custkey {
			for _, c := range byKey[custkey[o]] {
				if keep(preds, qty[o], tier[c]) {
					want++
				}
			}
		}
		if actual.Matches != want || actual.Keys > actual.Rows || actual.Keys == 0 && actual.Rows > 0 {
			t.Fatalf("%s: counts %+v, want %d matches", label, actual, want)
		}
		// The estimate is the same formula at the planner's counts.
		if est := ji.EstProbe; est.Rows != int(ji.EstProbeRows) || est.Matches != int(ji.EstOutRows) || est.Keys > est.Rows {
			t.Fatalf("%s: estimated counts %+v for %v probe rows, %v matches", label, est, ji.EstProbeRows, ji.EstOutRows)
		}
	}
}

// keep evaluates the trial's one predicate, if any, on an order's qty and
// a customer's tier.
func keep(preds []expr.Pred, qty, tier int64) bool {
	for _, p := range preds {
		switch {
		case p.Col == "qty" && !(qty < p.Val.I):
			return false
		case p.Col == "tier" && tier != p.Val.I:
			return false
		}
	}
	return true
}
