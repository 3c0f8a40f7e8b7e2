package opt

import (
	"repro/internal/energy"
	"repro/internal/expr"
)

// Fusion pricing.  When a Scan+HashAgg, Scan+Join or Join+HashAgg pair
// will take a fused pipeline (internal/exec/fused.go), the intermediate
// relation the materializing pipeline builds is never built — so the plan estimate must not charge
// for it, or the scheduler's energy-priced DOP and the serving front
// end's admission budgets would price fused plans as if they still moved
// those bytes.  Eligibility is answered by the executor itself
// (exec.FusedAggEligible / FusedProbeEligible / FusedProbeAgg run
// the same resolution as the runtime hook), so the planner can never
// disagree with what will actually execute.

// scanMaterialization prices what a fused consumer of table's scan
// skips: the scan's materialization of its matched rows into an
// intermediate relation — exactly the terms EstimateFullScan adds for it
// (matched × ncols cache-line touches and move instructions).
func (c *Catalog) scanMaterialization(table string, preds []expr.Pred, ncols int) energy.Counters {
	ts, err := c.Stats(table)
	if err != nil {
		return energy.Counters{}
	}
	matched := float64(ts.Rows)
	for _, p := range preds {
		matched *= ts.Selectivity(p)
	}
	return energy.Counters{
		CacheMisses:  uint64(matched * float64(ncols) / 4),
		Instructions: uint64(matched * float64(ncols) * 2),
	}
}

// credit subtracts work a fused pipeline skips from the plan estimate.
// Price is linear in the counters, so pricing the savings and
// subtracting equals re-pricing the reduced work.
func (info *PlanInfo) credit(cm *CostModel, sv energy.Counters) {
	sub := func(v *uint64, d uint64) { *v -= min(*v, d) }
	sc := cm.Price(sv, 0)
	info.Est.Time -= min(info.Est.Time, sc.Time)
	info.Est.Energy -= min(info.Est.Energy, sc.Energy)
	w := &info.Est.Work
	sub(&w.Instructions, sv.Instructions)
	sub(&w.CacheMisses, sv.CacheMisses)
	sub(&w.BytesReadDRAM, sv.BytesReadDRAM)
	sub(&w.BytesWrittenDRAM, sv.BytesWrittenDRAM)
}
