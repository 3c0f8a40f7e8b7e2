package opt

import (
	"repro/internal/energy"
	"repro/internal/exec"
)

// Test-only surface: the planner prices each join at its own probe
// counts and orders joins by OrderDP/OrderGreedy's own accounting; the
// tests pin those formulas from outside.

// EstimateHashJoin prices the one join (internal/exec/join.go) of
// probeRows × buildRows tuples yielding outRows when its probe reads a
// materialized relation: every row's 8-byte key streams in and is looked
// up (estimateJoin).  ncols is the output width for the gather phase.
func EstimateHashJoin(probeRows, buildRows, outRows float64, ncols int) energy.Counters {
	n, m := int(probeRows), int(outRows)
	pc := exec.ProbeCounts{Rows: n, Keys: n, Steps: n, Matches: m, Touches: m}
	return estimateJoin(pc, buildRows, uint64(probeRows*8), ncols)
}

// PlanCost evaluates the cost (sum of intermediate cardinalities) of an
// explicit left-deep order — used to compare greedy vs DP quality.
func (g *JoinGraph) PlanCost(order []int) float64 {
	if len(order) == 0 {
		return 0
	}
	card := g.Tables[order[0]].Rows
	cost := 0.0
	for i := 1; i < len(order); i++ {
		card = g.joinCard(card, order[:i], order[i])
		cost = clampCard(cost + card)
	}
	return cost
}
