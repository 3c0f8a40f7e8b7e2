package cluster_test

// Package cluster lives in internal/experiments/cluster, beside E11, the
// experiment that owns it; its tests keep this import path.

import (
	"testing"
	"time"

	. "repro/internal/experiments/cluster"
	"repro/internal/experiments/synth"
)

func TestElasticSavesEnergyOnDiurnalLoad(t *testing.T) {
	// E11's central claim: scaling nodes to the diurnal trough saves
	// energy versus static peak provisioning, at a bounded SLO cost.
	spec := DefaultNode()
	phases := synth.Diurnal(6000, time.Hour)
	peakNodes := 9 // enough for the 6000 q/s peak at 70% util
	static := SimulateStatic(spec, peakNodes, phases)
	elastic := SimulateElastic(spec, DefaultController(peakNodes), phases)
	if elastic.TotalEnergy >= static.TotalEnergy {
		t.Errorf("elastic (%v) must beat static (%v)", elastic.TotalEnergy, static.TotalEnergy)
	}
	if static.TotalDrop != 0 {
		t.Errorf("static peak provisioning must not drop queries: %g", static.TotalDrop)
	}
	// Reactive scaling may drop a little during ramps, but not much.
	if elastic.TotalDrop > elastic.TotalQ*0.1 {
		t.Errorf("elastic drops too much: %g of %g", elastic.TotalDrop, elastic.TotalQ)
	}
	if elastic.EnergyPerQ >= static.EnergyPerQ {
		t.Errorf("elastic J/query (%v) must beat static (%v)", elastic.EnergyPerQ, static.EnergyPerQ)
	}
}

func TestControllerBounds(t *testing.T) {
	spec := DefaultNode()
	c := Controller{Min: 2, Max: 5, TargetUtil: 0.7}
	if n := c.Want(spec, 0); n != 2 {
		t.Errorf("zero load must hold Min: %d", n)
	}
	if n := c.Want(spec, 1e9); n != 5 {
		t.Errorf("huge load must clamp to Max: %d", n)
	}
	if n := c.Want(spec, 1400); n != 3 {
		t.Errorf("1400 q/s at 700 effective q/s/node wants 3 nodes, got %d", n)
	}
}

func TestScaleUpPaysBootEnergy(t *testing.T) {
	spec := DefaultNode()
	phases := []synth.DiurnalPhase{
		{Rate: 100, Duration: time.Hour},
		{Rate: 5000, Duration: time.Hour},
		{Rate: 5000, Duration: time.Hour},
	}
	rep := SimulateElastic(spec, DefaultController(10), phases)
	foundBoot := false
	for _, ph := range rep.Phases {
		if ph.BootEnergy > 0 {
			foundBoot = true
		}
	}
	if !foundBoot {
		t.Error("scale-up must charge boot energy")
	}
}

func TestReactiveLagDropsDuringSpike(t *testing.T) {
	spec := DefaultNode()
	// Sudden spike: controller sized for 100 q/s meets 5000 q/s.
	phases := []synth.DiurnalPhase{
		{Rate: 100, Duration: time.Hour},
		{Rate: 5000, Duration: time.Hour},
	}
	rep := SimulateElastic(spec, DefaultController(10), phases)
	if rep.Phases[1].Dropped == 0 {
		t.Error("reactive controller must drop during an unforeseen spike")
	}
	// Static provisioning for the peak does not.
	st := SimulateStatic(spec, 8, phases)
	if st.TotalDrop != 0 {
		t.Error("static peak sizing must absorb the spike")
	}
}

func TestUtilizationAndPower(t *testing.T) {
	spec := DefaultNode()
	if spec.Power(0) != spec.IdleW {
		t.Error("zero utilization draws idle power")
	}
	if spec.Power(1) != spec.ActiveW {
		t.Error("full utilization draws active power")
	}
	mid := spec.Power(0.5)
	if !(mid > spec.IdleW && mid < spec.ActiveW) {
		t.Error("power must interpolate")
	}
	if spec.Power(2) != spec.ActiveW || spec.Power(-1) != spec.IdleW {
		t.Error("power must clamp utilization")
	}
}

func TestEmptyTrace(t *testing.T) {
	rep := SimulateElastic(DefaultNode(), DefaultController(4), nil)
	if rep.TotalEnergy != 0 || len(rep.Phases) != 0 {
		t.Fatal("empty trace must be empty")
	}
}
