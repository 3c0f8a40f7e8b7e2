package opt

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/exec"
)

// Objective selects what a query's schedule minimizes (core.Loop maps it
// to the scheduler's goal); plans do not depend on it.
type Objective int

// The supported optimization objectives (paper §IV: the system must
// "flexibly balance query response time minimization and throughput
// maximization under a given energy constraint").
const (
	// MinTime is classical response-time optimization.
	MinTime Objective = iota
	// MinEnergy minimizes joules per query.
	MinEnergy
	// MinEDP minimizes the energy-delay product.
	MinEDP
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinTime:
		return "min-time"
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-edp"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Cost is a priced plan alternative: estimated busy time, energy, and the
// raw work counters behind them.
type Cost struct {
	Time   time.Duration
	Energy energy.Joules
	Work   energy.Counters
}

// plus returns the sum of two costs (sequential work: times, energies,
// and counters all add).
func (c Cost) plus(o Cost) Cost {
	c.Time += o.Time
	c.Energy += o.Energy
	c.Work.Add(o.Work)
	return c
}

// EDP returns the energy-delay product of the cost.
func (c Cost) EDP() float64 { return energy.EDP(c.Energy, c.Time) }

// Better reports whether a beats b under the objective.
func (o Objective) Better(a, b Cost) bool {
	switch o {
	case MinEnergy:
		return a.Energy < b.Energy
	case MinEDP:
		return a.EDP() < b.EDP()
	default:
		return a.Time < b.Time
	}
}

// CostModel converts work counters into Cost using the energy model at a
// fixed P-state (the scheduler owns DVFS; the optimizer prices plans at
// the state the scheduler announces).
type CostModel struct {
	Model  *energy.Model
	PState energy.PState
	Cores  int // cores the plan may use (affects static share)
}

// NewCostModel returns a cost model at the model's max P-state.
func NewCostModel(m *energy.Model) *CostModel {
	return &CostModel{Model: m, PState: m.Core.MaxPState(), Cores: 1}
}

// Price converts counters plus non-CPU simulated time (link/disk) into a
// Cost.
func (cm *CostModel) Price(w energy.Counters, simTime time.Duration) Cost {
	cpu := cm.Model.CPUTime(w, cm.PState)
	total := cpu + simTime
	b := cm.Model.DynamicEnergy(w, cm.PState)
	b.Static = energy.StaticEnergy(cm.PState.Active, cpu) +
		energy.StaticEnergy(cm.Model.Core.Idle.Power, simTime)
	return Cost{Time: total, Energy: b.Total(), Work: w}
}

// EstimateHashJoin prices the one join (internal/exec/join.go) of
// probeRows × buildRows tuples yielding outRows when its probe reads a
// materialized relation: every row's 8-byte key streams in and is looked
// up (estimateJoin).  ncols is the output width for the gather phase.
func EstimateHashJoin(probeRows, buildRows, outRows float64, ncols int) energy.Counters {
	n, m := int(probeRows), int(outRows)
	pc := exec.ProbeCounts{Rows: n, Keys: n, Steps: n, Matches: m, Touches: m}
	return estimateJoin(pc, buildRows, uint64(probeRows*8), ncols)
}

// estimateJoin prices the one join phase by phase, mirroring its phase
// accounting so estimated and measured join costs share the same shape:
//
//   - partition: only a build side that outgrows one cache-resident table
//     (exec.RadixBits, the executor's own rule) is scattered into radix
//     partitions and streamed back in.
//   - build: the 8-byte key stream in, table writes, cache-resident misses
//     — one price at every size.
//   - probe: the key stream (keyBytes), then the lookup phase at counts
//     pc — exec.ProbeWork, the formula the executor bills it with, so the
//     estimate at the actual counts is the meter.
//
// The byte totals feed PlanInfo.Joins (partition + probe bytes) and,
// through PlanInfo.Est, the scheduler's DOP pricing.
func estimateJoin(pc exec.ProbeCounts, buildRows float64, keyBytes uint64, ncols int) energy.Counters {
	var w energy.Counters
	if exec.RadixBits(int(buildRows)) > 0 {
		// Partition pass: scattered (key, row) pairs out and back in.
		w.BytesWrittenDRAM += uint64(buildRows * 12)
		w.BytesReadDRAM += uint64(buildRows * 12)
		w.CacheMisses += uint64(buildRows / 4)
		w.Instructions += uint64(buildRows * 6)
	}
	// Build: the key stream in, table writes, resident misses.
	w.BytesReadDRAM += uint64(buildRows*8) + keyBytes
	w.BytesWrittenDRAM += uint64(buildRows * 16)
	w.CacheMisses += uint64(buildRows / 2)
	w.Instructions += uint64(buildRows * 12)
	w.Add(exec.ProbeWork(pc))
	w.Add(estimateJoinOutput(float64(pc.Matches), ncols))
	w.TuplesIn = uint64(pc.Rows) + uint64(buildRows)
	w.TuplesOut = uint64(pc.Matches)
	return w
}

// estimateJoinOutput prices materializing outRows join matches ncols
// wide: the (left, right) row-id pairs the probe writes, then the gather
// reading and writing every output value once.  A join whose matches
// fold straight into an aggregate (exec's fused probe→aggregate) does
// neither, and the planner credits exactly these terms back.
func estimateJoinOutput(outRows float64, ncols int) energy.Counters {
	moved := uint64(outRows * float64(ncols) * 8)
	return energy.Counters{
		BytesReadDRAM:    moved,
		BytesWrittenDRAM: uint64(outRows*8) + moved,
		CacheMisses:      uint64(outRows * float64(ncols) / 4),
		Instructions:     uint64(outRows * float64(ncols) * 2),
	}
}
