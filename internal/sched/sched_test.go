package sched

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/opt"
)

// bestDOP is the global optimum of a non-empty sweep under a figure of
// merit (ties keep the lower DOP) — the reference the tests hold the
// model's shape and the Loop's marginal-core waterfill against.
func bestDOP(points []DOPPoint, better func(a, b DOPPoint) bool) DOPPoint {
	best := points[0]
	for _, cand := range points[1:] {
		if better(cand, best) {
			best = cand
		}
	}
	return best
}

func TestDOPModelShape(t *testing.T) {
	m := energy.DefaultModel()
	w := energy.Counters{Instructions: 20_000_000, CacheMisses: 1_000_000, BytesReadDRAM: 1 << 24}
	p := m.Core.MaxPState()
	points := SweepDOP(m, w, p, 8, 0.05)
	if len(points) != 8 {
		t.Fatalf("want 8 points, have %d", len(points))
	}
	// Time must fall strictly with every added worker (Amdahl, serial
	// fraction < 1).
	for i := 1; i < len(points); i++ {
		if points[i].Time >= points[i-1].Time {
			t.Errorf("time must fall with DOP: %v at %d vs %v at %d",
				points[i].Time, points[i].DOP, points[i-1].Time, points[i-1].DOP)
		}
	}
	// The energy optimum must be interior: racing the idle cores and the
	// platform floor to idle beats serial, active-core power beats
	// maximal fan-out.
	best := bestDOP(points, func(a, b DOPPoint) bool { return a.Energy < b.Energy })
	if best.DOP == 1 || best.DOP == 8 {
		t.Errorf("energy-optimal DOP must be interior, got %d", best.DOP)
	}
	// Min-time always races all cores.
	fastest := bestDOP(points, func(a, b DOPPoint) bool { return a.Time < b.Time })
	if fastest.DOP != 8 {
		t.Errorf("min-time must pick the widest fan-out, got %d", fastest.DOP)
	}
	if got := PriceDOP(m, w, p, 0, 4, 0.05); got.DOP != 1 {
		t.Errorf("PriceDOP must clamp d to 1, got %d", got.DOP)
	}
}

// TestJoinDOPPricing feeds the optimizer's join estimate — partition
// scatter, hash-table build bytes, cache-resident probes, output gather
// — through the same P-state model that prices scans, and asserts joins
// get the same energy-aware DOP behavior: strictly falling time and an
// interior energy optimum.
func TestJoinDOPPricing(t *testing.T) {
	m := energy.DefaultModel()
	p := m.Core.MaxPState()
	// A 200K probe × 20K build FK join with 4 output columns (E20's shape
	// at a fifth of its size), priced by the planner that serves it.
	part := joinEstimate(t, m, 200_000, 20_000)

	points := SweepDOP(m, part, p, 8, 0.1)
	for i := 1; i < len(points); i++ {
		if points[i].Time >= points[i-1].Time {
			t.Errorf("join time must fall with DOP: %v at %d vs %v at %d",
				points[i].Time, points[i].DOP, points[i-1].Time, points[i-1].DOP)
		}
	}
	best := bestDOP(points, func(a, b DOPPoint) bool { return a.Energy < b.Energy })
	if best.DOP == 1 || best.DOP == 8 {
		t.Errorf("join energy-optimal DOP must be interior, got %d", best.DOP)
	}
}

// joinEstimate plans `SELECT fk, v, k, w FROM fact JOIN dim ON fk = k`
// over a fact table of nFact rows whose fk references each of nDim dim
// keys, and returns the plan's estimated work.
func joinEstimate(t *testing.T, m *energy.Model, nFact, nDim int) energy.Counters {
	t.Helper()
	cat := opt.NewCatalog()
	add := func(name string, cols [2]string, n int, val func(col, i int) int64) {
		tab := colstore.NewTable(name, colstore.Schema{
			{Name: cols[0], Type: colstore.Int64}, {Name: cols[1], Type: colstore.Int64}})
		w := tab.Writer()
		for c, col := range cols {
			vs := make([]int64, n)
			for i := range vs {
				vs[i] = val(c, i)
			}
			w.Int64(col, vs...)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Merge(0); err != nil {
			t.Fatal(err)
		}
		cat.Add(tab)
		if err := cat.Refresh(name); err != nil {
			t.Fatal(err)
		}
	}
	add("fact", [2]string{"fk", "v"}, nFact, func(c, i int) int64 { return int64(i % (nDim << c)) })
	add("dim", [2]string{"k", "w"}, nDim, func(c, i int) int64 { return int64(i) })
	q := &opt.Query{From: "fact", Joins: []opt.JoinSpec{{Table: "dim", LeftCol: "fk", RightCol: "k"}}}
	for _, col := range []string{"fk", "v", "k", "w"} {
		q.Select = append(q.Select, opt.SelectItem{Col: col})
	}
	_, info, err := cat.Plan(q, opt.NewCostModel(m))
	if err != nil {
		t.Fatal(err)
	}
	return info.Est.Work
}
