package opt

import "repro/internal/energy"

// Fusion pricing.  When a Scan+HashAgg, Scan+Join or Join+HashAgg pair
// takes a fused pipeline (internal/exec/fused.go), the intermediate
// relation the materializing pipeline builds is never built, so the plan
// estimate must not charge for it: the scheduler runs a ticket for its
// estimate and the serving front end books client budgets on it.  The
// executor answers every question: exec.FusedAggWork prices a scan-fed
// aggregation window by window as it will run, a fused probe side is
// priced without materializing a column (FusedProbeEligible), and a
// probe→aggregate fold at exec.ProbeFoldWork in place of the join output
// credited out below (FusedProbeAgg).

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
