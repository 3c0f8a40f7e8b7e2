package opt_test

// The optimizer decisions only an experiment asks for live beside their
// experiments: the plan choice under a power cap or an energy budget with
// E1's simulator (internal/experiments/coresim), the compress-vs-send codec choice with
// E3 (internal/experiments/ship).  Their tests keep this import path.

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/coresim"
	"repro/internal/experiments/ship"
	"repro/internal/experiments/synth"
	"repro/internal/netsim"
	"repro/internal/opt"
)

func TestPickUnderPowerCap(t *testing.T) {
	// Three plans: fast+hungry, medium, slow+frugal.
	alts := []opt.Cost{
		{Time: 10 * time.Millisecond, Energy: 2},   // 200 W
		{Time: 50 * time.Millisecond, Energy: 2.5}, // 50 W
		{Time: 400 * time.Millisecond, Energy: 4},  // 10 W
	}
	if got := coresim.PickUnderPowerCap(alts, 500); got != 0 {
		t.Errorf("generous cap must pick the fastest, got %d", got)
	}
	if got := coresim.PickUnderPowerCap(alts, 100); got != 1 {
		t.Errorf("100 W cap must pick the medium plan, got %d", got)
	}
	if got := coresim.PickUnderPowerCap(alts, 20); got != 2 {
		t.Errorf("20 W cap must pick the frugal plan, got %d", got)
	}
	if got := coresim.PickUnderPowerCap(alts, 1); got != 2 {
		t.Errorf("impossible cap must pick the lowest-power plan, got %d", got)
	}
}

func TestPickUnderEnergyBudget(t *testing.T) {
	alts := []opt.Cost{
		{Time: 10 * time.Millisecond, Energy: 5},
		{Time: 100 * time.Millisecond, Energy: 1},
	}
	if got := coresim.PickUnderEnergyBudget(alts, 10); got != 0 {
		t.Errorf("big budget picks fastest, got %d", got)
	}
	if got := coresim.PickUnderEnergyBudget(alts, 2); got != 1 {
		t.Errorf("tight budget picks frugal, got %d", got)
	}
	if got := coresim.PickUnderEnergyBudget(alts, 0.1); got != 1 {
		t.Errorf("impossible budget picks min energy, got %d", got)
	}
}

func TestChooseCodecFlipsWithLinkSpeed(t *testing.T) {
	// E3 shape: compressible data should ship compressed on slow links
	// and (near-incompressible data) raw on fast links.
	cm := opt.NewCostModel(energy.DefaultModel())
	runs := synth.RunsInts(5, 200000, 4, 100) // highly compressible
	slow, _ := netsim.LinkByName("0.1Gbps")
	fast, _ := netsim.LinkByName("40Gbps")

	p := ship.ChooseCodec(cm, runs, slow, opt.MinTime)
	if p.Codec.Name() == "none" {
		t.Error("slow link with compressible data must compress")
	}
	wide := synth.UniformInts(6, 200000, 1<<62) // ~incompressible
	p = ship.ChooseCodec(cm, wide, fast, opt.MinTime)
	if p.Codec.Name() != "none" && p.Ratio < 0.95 {
		t.Errorf("fast link with incompressible data picked %s at ratio %g", p.Codec.Name(), p.Ratio)
	}
	// The estimator should agree with the oracle on clear-cut cases.
	est := ship.ChooseCodec(cm, runs, slow, opt.MinEnergy)
	orc := ship.OracleCodec(cm, runs, slow, opt.MinEnergy)
	if est.Codec.Name() != orc.Codec.Name() {
		t.Errorf("estimator picked %s, oracle %s", est.Codec.Name(), orc.Codec.Name())
	}
}
