// Package coresim is the whole-machine simulator of experiments E1 and
// E5, the "elasticity in the small" of §IV.  It simulates a pool of
// cores with P-states (DVFS) and C-states (idle/parked), runs open-loop
// query arrival traces through FCFS dispatch, and integrates energy over
// the schedule.  Three policies reproduce the paper's idle-power
// argument (experiment E5):
//
//   - AlwaysOn: all cores at max frequency, idle cores in shallow C1 —
//     the no-power-management baseline.
//   - RaceToIdle: max frequency, but idle cores park in deep C6 (cheap
//     idle, wake latency on dispatch).
//   - DVFS: frequency scaled to the offered load, idle cores in C1.
//
// A power cap (the Figure 2 regime, experiment E1) restricts how many
// cores may be active and at which P-state; the simulator picks the
// fastest feasible configuration under the cap, and PickUnderPowerCap
// makes the optimizer's plan choice under the same cap
// (PickUnderEnergyBudget under a per-query energy budget instead).
package coresim

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/opt"
)

// Policy selects the idle/frequency management strategy.
type Policy int

// The scheduling policies compared by experiment E5.
const (
	AlwaysOn Policy = iota
	RaceToIdle
	DVFS
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case AlwaysOn:
		return "always-on"
	case RaceToIdle:
		return "race-to-idle"
	case DVFS:
		return "dvfs"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Job is one query arriving at a given offset with a known work profile.
type Job struct {
	Arrival time.Duration
	Work    energy.Counters
}

// Config parameterizes a simulation run.
type Config struct {
	Cores    int
	Model    *energy.Model
	Policy   Policy
	PowerCap energy.Watts // 0 = uncapped
	MemGB    float64      // resident DRAM for background power
}

// Result summarizes a simulated schedule.
type Result struct {
	Completed    int
	Makespan     time.Duration
	AvgLatency   time.Duration
	P95Latency   time.Duration
	TotalEnergy  energy.Joules
	EnergyPerJob energy.Joules
	AvgPower     energy.Watts
	ActiveCores  int           // cores the policy/cap allowed
	PState       energy.PState // operating point chosen
}

// chooseConfig picks the core count and P-state.  Under a cap, it
// maximizes cores × frequency subject to the worst-case machine power —
// active cores at P.Active plus a dynamic-execution margin, spare cores
// at their idle/parked power, and DRAM background — staying under the
// cap.  DVFS policy additionally scales frequency down to the offered
// load.
func chooseConfig(cfg Config, jobs []Job) (int, energy.PState) {
	m := cfg.Model
	ps := m.Core.PStates
	spareW := float64(m.Core.Idle.Power)
	if cfg.Policy != AlwaysOn {
		spareW = float64(m.Core.Parked.Power)
	}
	dramW := float64(m.DRAMStaticPerGB) * cfg.MemGB
	fmax := float64(m.Core.MaxPState().Freq)
	// Worst-case machine power with c cores active at p.
	worstPower := func(c int, p energy.PState) float64 {
		scale := float64(p.Freq) / fmax
		dynMargin := m.Core.IPC * float64(p.Freq) * float64(m.PerInstr) * scale * scale
		return float64(c)*(float64(p.Active)+dynMargin) +
			float64(cfg.Cores-c)*spareW + dramW
	}
	best := struct {
		cores int
		p     energy.PState
		score float64
	}{cores: 1, p: m.Core.MinPState(), score: 0}
	for _, p := range ps {
		for c := 1; c <= cfg.Cores; c++ {
			if cfg.PowerCap > 0 && worstPower(c, p) > float64(cfg.PowerCap) {
				continue
			}
			score := float64(c) * float64(p.Freq)
			if score > best.score {
				best.cores, best.p, best.score = c, p, score
			}
		}
	}
	cores, p := best.cores, best.p
	if cfg.Policy == DVFS && len(jobs) > 1 {
		// Offered utilization at the chosen max config.
		var busy time.Duration
		for _, j := range jobs {
			busy += m.CPUTime(j.Work, p)
		}
		span := jobs[len(jobs)-1].Arrival - jobs[0].Arrival
		if span <= 0 {
			span = busy
		}
		util := busy.Seconds() / (span.Seconds() * float64(cores))
		// Lowest P-state keeping utilization under 80%.
		for _, cand := range ps {
			scaled := util * float64(p.Freq) / float64(cand.Freq)
			if scaled <= 0.8 && (cfg.PowerCap == 0 || worstPower(cores, cand) <= float64(cfg.PowerCap)) {
				p = cand
				break
			}
		}
	}
	return cores, p
}

// Simulate runs the jobs through the configured machine and returns the
// schedule's latency and energy figures.  Jobs must be sorted by arrival.
func Simulate(cfg Config, jobs []Job) Result {
	if cfg.Cores <= 0 || len(jobs) == 0 {
		return Result{}
	}
	m := cfg.Model
	cores, pstate := chooseConfig(cfg, jobs)

	free := make([]time.Duration, cores)    // next-free time per core
	busy := make([]time.Duration, cores)    // accumulated busy time
	var dyn energy.Breakdown                // dynamic energy of all jobs
	lat := make([]time.Duration, len(jobs)) // per-job latency
	wake := m.Core.Parked.WakeLatency

	for i, j := range jobs {
		// Earliest-free core.
		c := 0
		for k := 1; k < cores; k++ {
			if free[k] < free[c] {
				c = k
			}
		}
		start := j.Arrival
		if free[c] > start {
			start = free[c]
		} else if cfg.Policy == RaceToIdle {
			start += wake // parked core must wake
		}
		service := m.CPUTime(j.Work, pstate)
		done := start + service
		free[c] = done
		busy[c] += service
		lat[i] = done - j.Arrival
		dyn.Add(m.DynamicEnergy(j.Work, pstate))
	}

	var makespan time.Duration
	for _, f := range free {
		if f > makespan {
			makespan = f
		}
	}
	if makespan < jobs[len(jobs)-1].Arrival {
		makespan = jobs[len(jobs)-1].Arrival
	}

	// Static energy: active cores burn P.Active while busy; idle time is
	// priced by the policy's C-state.  Cores beyond `cores` are parked
	// (RaceToIdle/DVFS) or idle (AlwaysOn).
	idleState := m.Core.Idle
	if cfg.Policy == RaceToIdle {
		idleState = m.Core.Parked
	}
	var static energy.Joules
	for c := 0; c < cores; c++ {
		static += energy.StaticEnergy(pstate.Active, busy[c])
		static += energy.StaticEnergy(idleState.Power, makespan-busy[c])
	}
	sparePower := m.Core.Idle.Power
	if cfg.Policy != AlwaysOn {
		sparePower = m.Core.Parked.Power
	}
	static += energy.StaticEnergy(sparePower, makespan) * energy.Joules(cfg.Cores-cores)
	static += energy.StaticEnergy(energy.Watts(float64(m.DRAMStaticPerGB)*cfg.MemGB), makespan)

	total := dyn.Total() + static
	res := Result{
		Completed:    len(jobs),
		Makespan:     makespan,
		TotalEnergy:  total,
		EnergyPerJob: total / energy.Joules(len(jobs)),
		ActiveCores:  cores,
		PState:       pstate,
	}
	res.AvgLatency, res.P95Latency = energy.LatencySummary(lat)
	if makespan > 0 {
		res.AvgPower = energy.Watts(float64(total) / makespan.Seconds())
	}
	return res
}

// MakeJobs builds a job list from inter-arrival gaps and a fixed work
// profile per query.
func MakeJobs(gaps []time.Duration, work energy.Counters) []Job {
	jobs := make([]Job, len(gaps))
	var at time.Duration
	for i, g := range gaps {
		at += g
		jobs[i] = Job{Arrival: at, Work: work}
	}
	return jobs
}

// PickUnderPowerCap returns the index of the best alternative under a
// power cap: the fastest plan whose average power fits the cap, or — if
// none fits — the lowest-power plan.  This is the decision surface of the
// paper's Figure 2: as the cap tightens, the optimizer abandons the
// fastest plan for frugal ones.
func PickUnderPowerCap(alts []opt.Cost, cap energy.Watts) int {
	best := -1
	for i, a := range alts {
		if power(a) <= cap {
			if best < 0 || a.Time < alts[best].Time {
				best = i
			}
		}
	}
	if best >= 0 {
		return best
	}
	for i, a := range alts {
		if best < 0 || power(a) < power(alts[best]) {
			best = i
		}
	}
	return best
}

// PickUnderEnergyBudget returns the fastest alternative whose energy does
// not exceed the per-query budget, or the lowest-energy plan if none
// fits.
func PickUnderEnergyBudget(alts []opt.Cost, budget energy.Joules) int {
	best := -1
	for i, a := range alts {
		if a.Energy <= budget {
			if best < 0 || a.Time < alts[best].Time {
				best = i
			}
		}
	}
	if best >= 0 {
		return best
	}
	for i, a := range alts {
		if best < 0 || a.Energy < alts[best].Energy {
			best = i
		}
	}
	return best
}

// power returns a plan's implied average power draw.
func power(c opt.Cost) energy.Watts {
	if c.Time <= 0 {
		return 0
	}
	return energy.Watts(float64(c.Energy) / c.Time.Seconds())
}
