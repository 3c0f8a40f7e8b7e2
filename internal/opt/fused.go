package opt

import (
	"repro/internal/energy"
	"repro/internal/expr"
)

// Fusion pricing.  When a Scan+HashAgg or Scan+ParallelJoin pair will
// take the fused operate-on-compressed path (internal/exec/fused.go),
// the intermediate relation the materializing pipeline builds is never
// built — so the plan estimate must not charge for it, or the scheduler's
// energy-priced DOP and the serving front end's admission budgets would
// price fused plans as if they still moved those bytes.  Eligibility is
// answered by the executor itself (exec.FusedAggEligible /
// exec.FusedProbeEligible run the same resolution as the runtime hook),
// so the planner can never disagree with what will actually execute.

// EstimateFusionSavings prices the work a fused pipeline skips relative
// to the planned scan → consumer pair: the scan's materialization of its
// matched rows into an intermediate relation — exactly the terms
// EstimateFullScan adds for it (matched × ncols cache-line touches and
// move instructions).  The consumer's own re-read of the intermediate is
// priced at runtime, not in the scan estimate, so only the scan-side
// terms are credited here.
func EstimateFusionSavings(ts *TableStats, preds []expr.Pred, ncols int) energy.Counters {
	matched := float64(ts.Rows)
	for _, p := range preds {
		matched *= ts.Selectivity(p)
	}
	return energy.Counters{
		CacheMisses:  uint64(matched * float64(ncols) / 4),
		Instructions: uint64(matched * float64(ncols) * 2),
	}
}

// creditFusion subtracts the work a fused consumer of table's scan skips
// from the plan estimate.  Price is linear in the counters, so pricing
// the savings and subtracting equals re-pricing the reduced work.
func (info *PlanInfo) creditFusion(c *Catalog, cm *CostModel, table string, preds []expr.Pred, ncols int) {
	ts, err := c.Stats(table)
	if err != nil {
		return
	}
	sv := EstimateFusionSavings(ts, preds, ncols)
	sc := cm.Price(sv, 0)
	if info.Est.Time > sc.Time {
		info.Est.Time -= sc.Time
	} else {
		info.Est.Time = 0
	}
	if info.Est.Energy > sc.Energy {
		info.Est.Energy -= sc.Energy
	} else {
		info.Est.Energy = 0
	}
	w := &info.Est.Work
	if w.CacheMisses >= sv.CacheMisses {
		w.CacheMisses -= sv.CacheMisses
	} else {
		w.CacheMisses = 0
	}
	if w.Instructions >= sv.Instructions {
		w.Instructions -= sv.Instructions
	} else {
		w.Instructions = 0
	}
}
