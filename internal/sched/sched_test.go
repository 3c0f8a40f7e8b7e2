package sched

import (
	"testing"

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
	// 1M probe × 100K build FK join, 4 output columns: the E20 shape.
	part := opt.EstimateHashJoin(1e6, 1e5, 1e6, 4)

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
