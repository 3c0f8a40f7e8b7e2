package sched

import (
	"time"

	"repro/internal/energy"
)

// Energy-aware degree-of-parallelism selection ("elasticity in the
// small", §IV, meeting morsel-driven execution): the same P-state cost
// model that prices the scheduler's DVFS decisions prices a single
// query's candidate worker counts.  More active cores finish the query
// sooner — racing the platform's background power to idle — but burn
// more active-core power and amortize less of the parallelization
// overhead, so the energy-optimal DOP is finite and workload-dependent
// (Harizopoulos et al.: the energy-optimal plan is the time-optimal one
// *at a chosen parallelism*).  The model is operator-agnostic: scans,
// parallel aggregations, and the join all arrive as energy.Counters (the
// join via opt.EstimateHashJoin's intern, partition, build, probe, and
// gather phase estimates), so one P-state model
// prices every operator's DOP.

// SerialFraction is the Amdahl fraction of a parallel query that stays on
// the coordinator: planning, the partial-aggregate merge, and result
// concatenation.  Calibrated against the E18 measurements.
const SerialFraction = 0.05

// amdahl returns the wall-clock factor per serial-equivalent second at
// degree d.  PriceDOP prices candidate grants with it and Loop
// integrates running-query progress with it — one formula, so the
// marginal-core gains the arbiter acts on always match the progress its
// virtual clock simulates.
func amdahl(d int) float64 {
	if d < 1 {
		d = 1
	}
	return SerialFraction + (1-SerialFraction)/float64(d)
}

// DOPPoint prices one query's work at a candidate degree of parallelism.
type DOPPoint struct {
	DOP    int
	Time   time.Duration
	Energy energy.Joules
}

// EDP returns the energy-delay product of the point.
func (p DOPPoint) EDP() float64 { return energy.EDP(p.Energy, p.Time) }

// PriceDOP prices running the counted work with d of the machine's cores
// cores at P-state p.  Time follows Amdahl's law over the model's CPU
// time.  Energy is the DOP-invariant dynamic energy plus, integrated over
// the shortened wall clock: d active cores, the cores-d unused cores
// idling in shallow C1 (they must stay wakeable while the query runs —
// parking between queries is the scheduler's policy decision), and the
// platform background (DRAM for memGB resident gigabytes, SSD, link).
// The unused-core and platform terms are what racing to idle amortizes:
// they make the energy-optimal DOP larger than one, while the active-core
// term keeps it below maximal fan-out.
func PriceDOP(m *energy.Model, w energy.Counters, p energy.PState, d, cores int, memGB float64) DOPPoint {
	if d < 1 {
		d = 1
	}
	if cores < d {
		cores = d
	}
	cpu := m.CPUTime(w, p)
	t := time.Duration(float64(cpu) * amdahl(d))
	idle := energy.Watts(float64(m.Core.Idle.Power) * float64(cores-d))
	platform := energy.Watts(float64(m.DRAMStaticPerGB)*memGB) + m.SSDIdle + m.LinkIdle
	e := m.DynamicEnergy(w, p).Total() +
		energy.StaticEnergy(p.Active, t)*energy.Joules(d) +
		energy.StaticEnergy(idle+platform, t)
	return DOPPoint{DOP: d, Time: t, Energy: e}
}

// SweepDOP prices the work at every DOP in [1, maxDOP] on a maxDOP-core
// machine.
func SweepDOP(m *energy.Model, w energy.Counters, p energy.PState, maxDOP int, memGB float64) []DOPPoint {
	if maxDOP < 1 {
		maxDOP = 1
	}
	points := make([]DOPPoint, 0, maxDOP)
	for d := 1; d <= maxDOP; d++ {
		points = append(points, PriceDOP(m, w, p, d, maxDOP, memGB))
	}
	return points
}
