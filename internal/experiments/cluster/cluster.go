// Package cluster simulates "data-as-a-service" elasticity in the large
// (§II): a pool of database nodes serving an open query stream, with a
// controller that scales the active node count to the offered load.
// Experiment E11 compares static peak provisioning against elastic
// scaling on a diurnal trace, reporting energy and SLO violations.
package cluster

import (
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/synth"
)

// NodeSpec describes one database node.
type NodeSpec struct {
	CapacityQPS float64      // queries/second a node sustains
	ActiveW     energy.Watts // power at full utilization
	IdleW       energy.Watts // power when on but idle
	BootTime    time.Duration
}

// DefaultNode returns the node profile used by the experiments: a
// commodity server able to sustain 1000 q/s at 250 W, idling at 120 W.
func DefaultNode() NodeSpec {
	return NodeSpec{CapacityQPS: 1000, ActiveW: 250, IdleW: 120, BootTime: 30 * time.Second}
}

// Power returns the node's draw at the given utilization (linear
// interpolation between idle and active — the standard energy-
// proportionality model).
func (n NodeSpec) Power(util float64) energy.Watts {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return n.IdleW + energy.Watts(util*float64(n.ActiveW-n.IdleW))
}

// Controller scales the cluster.
type Controller struct {
	Min, Max   int
	TargetUtil float64 // desired utilization of active nodes
}

// DefaultController allows scaling between 1 and max nodes at 70% target
// utilization.
func DefaultController(max int) Controller {
	return Controller{Min: 1, Max: max, TargetUtil: 0.7}
}

// Want returns the node count the controller requests for a rate.
func (c Controller) Want(spec NodeSpec, rate float64) int {
	n := int(rate/(spec.CapacityQPS*c.TargetUtil)) + 1
	if rate == 0 {
		n = c.Min
	}
	if n < c.Min {
		n = c.Min
	}
	if n > c.Max {
		n = c.Max
	}
	return n
}

// PhaseReport summarizes one trace phase.
type PhaseReport struct {
	Rate       float64
	Nodes      int
	Util       float64
	Energy     energy.Joules
	Dropped    float64 // queries beyond capacity (SLO violations)
	BootEnergy energy.Joules
}

// Report summarizes a full trace.
type Report struct {
	Phases      []PhaseReport
	TotalEnergy energy.Joules
	TotalDrop   float64
	TotalQ      float64
	EnergyPerQ  energy.Joules
}

// SimulateStatic provisions a fixed node count for the whole trace.
func SimulateStatic(spec NodeSpec, nodes int, phases []synth.DiurnalPhase) Report {
	return simulate(spec, phases, func(float64, int) int { return nodes }, 0)
}

// SimulateElastic runs the controller over the trace.  Scaling decisions
// use the previous phase's rate (the controller reacts, it does not
// predict), so load spikes can outrun capacity — exactly the SLO tension
// the paper's elasticity discussion describes.
func SimulateElastic(spec NodeSpec, ctrl Controller, phases []synth.DiurnalPhase) Report {
	return simulate(spec, phases, func(prevRate float64, cur int) int {
		return ctrl.Want(spec, prevRate)
	}, ctrl.Min)
}

func simulate(spec NodeSpec, phases []synth.DiurnalPhase, decide func(prevRate float64, cur int) int, start int) Report {
	var rep Report
	nodes := start
	if nodes <= 0 && len(phases) > 0 {
		nodes = decide(phases[0].Rate, 0)
	}
	prevRate := 0.0
	if len(phases) > 0 {
		prevRate = phases[0].Rate
	}
	for _, ph := range phases {
		want := decide(prevRate, nodes)
		var boot energy.Joules
		if want > nodes {
			// Booting nodes burn active power for BootTime without
			// serving.
			boot = energy.StaticEnergy(spec.ActiveW, spec.BootTime) * energy.Joules(want-nodes)
		}
		nodes = want
		capacity := float64(nodes) * spec.CapacityQPS
		util := 0.0
		if capacity > 0 {
			util = ph.Rate / capacity
		}
		served := ph.Rate
		dropped := 0.0
		if util > 1 {
			served = capacity
			dropped = (ph.Rate - capacity) * ph.Duration.Seconds()
			util = 1
		}
		e := energy.StaticEnergy(spec.Power(util), ph.Duration) * energy.Joules(nodes)
		rep.Phases = append(rep.Phases, PhaseReport{
			Rate: ph.Rate, Nodes: nodes, Util: util,
			Energy: e + boot, Dropped: dropped, BootEnergy: boot,
		})
		rep.TotalEnergy += e + boot
		rep.TotalDrop += dropped
		rep.TotalQ += served * ph.Duration.Seconds()
		prevRate = ph.Rate
	}
	if rep.TotalQ > 0 {
		rep.EnergyPerQ = rep.TotalEnergy / energy.Joules(rep.TotalQ)
	}
	return rep
}
