package sched

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/opt"
	"repro/internal/workload"
)

func lightWork() energy.Counters {
	return energy.Counters{Instructions: 3_000_000, BytesReadDRAM: 1 << 20, CacheMisses: 2000}
}

func jobsAtRate(rate float64, n int) []Job {
	return MakeJobs(workload.Poisson(11, n, rate), lightWork())
}

func TestSimulateEmpty(t *testing.T) {
	r := Simulate(Config{Cores: 4, Model: energy.DefaultModel()}, nil)
	if r.Completed != 0 || r.TotalEnergy != 0 {
		t.Fatal("empty simulation must be empty")
	}
}

func TestAllJobsComplete(t *testing.T) {
	m := energy.DefaultModel()
	jobs := jobsAtRate(200, 500)
	for _, pol := range []Policy{AlwaysOn, RaceToIdle, DVFS} {
		r := Simulate(Config{Cores: 8, Model: m, Policy: pol, MemGB: 16}, jobs)
		if r.Completed != 500 {
			t.Fatalf("%v: completed %d", pol, r.Completed)
		}
		if r.TotalEnergy <= 0 || r.Makespan <= 0 || r.P95Latency < r.AvgLatency/2 {
			t.Fatalf("%v: implausible result %+v", pol, r)
		}
	}
}

func TestRaceToIdleSavesEnergyAtLowLoad(t *testing.T) {
	// E5's central claim: at low utilization, parking idle cores (deep
	// C-state) costs markedly less energy than leaving them in shallow
	// idle, at a small latency premium.
	m := energy.DefaultModel()
	jobs := jobsAtRate(20, 300) // low load
	on := Simulate(Config{Cores: 16, Model: m, Policy: AlwaysOn, MemGB: 16}, jobs)
	rti := Simulate(Config{Cores: 16, Model: m, Policy: RaceToIdle, MemGB: 16}, jobs)
	if rti.TotalEnergy >= on.TotalEnergy {
		t.Errorf("race-to-idle must save energy at low load: %v vs %v", rti.TotalEnergy, on.TotalEnergy)
	}
	if rti.AvgLatency < on.AvgLatency {
		t.Logf("note: race-to-idle latency %v vs always-on %v", rti.AvgLatency, on.AvgLatency)
	}
}

func TestDVFSLowersFrequencyAtLowLoad(t *testing.T) {
	m := energy.DefaultModel()
	low := Simulate(Config{Cores: 8, Model: m, Policy: DVFS, MemGB: 16}, jobsAtRate(10, 200))
	if low.PState.Freq >= m.Core.MaxPState().Freq {
		t.Errorf("DVFS at 10 q/s should downclock, got %v", low.PState.Freq)
	}
	high := Simulate(Config{Cores: 8, Model: m, Policy: DVFS, MemGB: 16}, jobsAtRate(3000, 200))
	if high.PState.Freq < low.PState.Freq {
		t.Errorf("DVFS must clock up under load: %v vs %v", high.PState.Freq, low.PState.Freq)
	}
}

func TestPowerCapThrottles(t *testing.T) {
	// The Fig. 2 regime: a tight power cap must reduce the sustained
	// power draw and stretch response time.
	m := energy.DefaultModel()
	jobs := jobsAtRate(2000, 1000) // heavy load
	un := Simulate(Config{Cores: 16, Model: m, Policy: AlwaysOn, MemGB: 16}, jobs)
	capped := Simulate(Config{Cores: 16, Model: m, Policy: AlwaysOn, PowerCap: 40, MemGB: 16}, jobs)
	if capped.ActiveCores >= un.ActiveCores {
		t.Errorf("cap must reduce active cores: %d vs %d", capped.ActiveCores, un.ActiveCores)
	}
	if capped.AvgLatency <= un.AvgLatency {
		t.Errorf("cap must stretch latency: %v vs %v", capped.AvgLatency, un.AvgLatency)
	}
	if capped.AvgPower > 40*1.05 {
		t.Errorf("capped run draws %v, cap was 40 W", capped.AvgPower)
	}
}

func TestCapSweepMonotone(t *testing.T) {
	// Sweeping the cap from tight to generous must not increase latency.
	m := energy.DefaultModel()
	jobs := jobsAtRate(1500, 600)
	var prev time.Duration
	for i, cap := range []energy.Watts{25, 50, 100, 200, 400} {
		r := Simulate(Config{Cores: 16, Model: m, Policy: AlwaysOn, PowerCap: cap, MemGB: 16}, jobs)
		if i > 0 && r.AvgLatency > prev+prev/10 {
			t.Errorf("latency rose when cap loosened to %v: %v after %v", cap, r.AvgLatency, prev)
		}
		prev = r.AvgLatency
	}
}

func TestMakeJobsCumulative(t *testing.T) {
	jobs := MakeJobs([]time.Duration{time.Second, time.Second}, lightWork())
	if jobs[0].Arrival != time.Second || jobs[1].Arrival != 2*time.Second {
		t.Fatal("arrivals must accumulate gaps")
	}
}

func TestPolicyString(t *testing.T) {
	if AlwaysOn.String() != "always-on" || RaceToIdle.String() != "race-to-idle" || DVFS.String() != "dvfs" {
		t.Fatal("policy names wrong")
	}
}

// bestDOP is the global optimum of a non-empty sweep under a figure of
// merit (ties keep the lower DOP) — the reference the tests hold the
// model's shape and the Loop's marginal-core waterfill against.
func bestDOP(points []DOPPoint, better func(a, b DOPPoint) bool) DOPPoint {
	best := points[0]
	for _, cand := range points[1:] {
		if better(cand, best) {
			best = cand
		}
	}
	return best
}

func TestDOPModelShape(t *testing.T) {
	m := energy.DefaultModel()
	w := energy.Counters{Instructions: 20_000_000, CacheMisses: 1_000_000, BytesReadDRAM: 1 << 24}
	p := m.Core.MaxPState()
	points := SweepDOP(m, w, p, 8, 0.05)
	if len(points) != 8 {
		t.Fatalf("want 8 points, have %d", len(points))
	}
	// Time must fall strictly with every added worker (Amdahl, serial
	// fraction < 1).
	for i := 1; i < len(points); i++ {
		if points[i].Time >= points[i-1].Time {
			t.Errorf("time must fall with DOP: %v at %d vs %v at %d",
				points[i].Time, points[i].DOP, points[i-1].Time, points[i-1].DOP)
		}
	}
	// The energy optimum must be interior: racing the idle cores and the
	// platform floor to idle beats serial, active-core power beats
	// maximal fan-out.
	best := bestDOP(points, func(a, b DOPPoint) bool { return a.Energy < b.Energy })
	if best.DOP == 1 || best.DOP == 8 {
		t.Errorf("energy-optimal DOP must be interior, got %d", best.DOP)
	}
	// Min-time always races all cores.
	fastest := bestDOP(points, func(a, b DOPPoint) bool { return a.Time < b.Time })
	if fastest.DOP != 8 {
		t.Errorf("min-time must pick the widest fan-out, got %d", fastest.DOP)
	}
	if got := PriceDOP(m, w, p, 0, 4, 0.05); got.DOP != 1 {
		t.Errorf("PriceDOP must clamp d to 1, got %d", got.DOP)
	}
}

// TestJoinDOPPricing feeds the optimizer's join estimate — partition
// scatter, hash-table build bytes, cache-resident probes, output gather
// — through the same P-state model that prices scans, and asserts joins
// get the same energy-aware DOP behavior: strictly falling time and an
// interior energy optimum.
func TestJoinDOPPricing(t *testing.T) {
	m := energy.DefaultModel()
	p := m.Core.MaxPState()
	// 1M probe × 100K build FK join, 4 output columns: the E20 shape.
	part := opt.EstimateHashJoin(1e6, 1e5, 1e6, 4)

	points := SweepDOP(m, part, p, 8, 0.1)
	for i := 1; i < len(points); i++ {
		if points[i].Time >= points[i-1].Time {
			t.Errorf("join time must fall with DOP: %v at %d vs %v at %d",
				points[i].Time, points[i].DOP, points[i-1].Time, points[i-1].DOP)
		}
	}
	best := bestDOP(points, func(a, b DOPPoint) bool { return a.Energy < b.Energy })
	if best.DOP == 1 || best.DOP == 8 {
		t.Errorf("join energy-optimal DOP must be interior, got %d", best.DOP)
	}
}
