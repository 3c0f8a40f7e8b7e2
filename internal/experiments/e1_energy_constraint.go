package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/coresim"
	"repro/internal/experiments/synth"
	"repro/internal/opt"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Figure 2 — impact of an energy constraint on query optimization",
		Claim: "\"the system has to flexibly balance query response time minimization and throughput maximization under a given energy constraint on a case-by-case basis\" (§IV, Fig. 2)",
		Run:   runE1,
	})
}

// E1Point is one measured point of the Fig. 2 trade-off curve.
type E1Point struct {
	Cap        energy.Watts
	Cores      int
	Freq       energy.Hertz
	AvgLatency time.Duration
	P95Latency time.Duration
	Throughput float64 // completed queries per second of makespan
	JPerQuery  energy.Joules
	PlanChosen string
}

// E1Curve runs the power-cap sweep and returns the measured points.
func E1Curve() []E1Point {
	model := energy.DefaultModel()
	work := energy.Counters{Instructions: 40_000_000, BytesReadDRAM: 32 << 20, CacheMisses: 60_000}
	jobs := coresim.MakeJobs(synth.Poisson(7, 400, 120), work)

	// Plan alternatives the optimizer switches between under the cap.
	// The fastest plan uses all cores flat out (high power); the middle
	// one uses a few cores; the frugal plan serializes on one slow core.
	// Times and energies follow from the same work profile priced at
	// different degrees of parallelism and P-states.
	fast := planAlt(model, work, 16, model.Core.MaxPState())
	mid := planAlt(model, work, 4, model.Core.PStates[1])
	frugal := planAlt(model, work, 1, model.Core.PStates[0])
	alts := []struct {
		name string
		cost opt.Cost
	}{
		{"all-cores-maxfreq", fast},
		{"4-cores-midfreq", mid},
		{"1-core-minfreq", frugal},
	}

	var points []E1Point
	for _, cap := range []energy.Watts{25, 40, 60, 90, 130, 200, 400} {
		r := coresim.Simulate(coresim.Config{
			Cores: 16, Model: model, Policy: coresim.AlwaysOn, PowerCap: cap, MemGB: 32,
		}, jobs)
		costs := make([]opt.Cost, len(alts))
		for i, a := range alts {
			costs[i] = a.cost
		}
		pick := coresim.PickUnderPowerCap(costs, cap)
		points = append(points, E1Point{
			Cap:        cap,
			Cores:      r.ActiveCores,
			Freq:       r.PState.Freq,
			AvgLatency: r.AvgLatency,
			P95Latency: r.P95Latency,
			Throughput: float64(r.Completed) / r.Makespan.Seconds(),
			JPerQuery:  r.EnergyPerJob,
			PlanChosen: alts[pick].name,
		})
	}
	return points
}

// planAlt prices running the work profile spread over n cores at P-state
// p: wall time divides by n (perfect intra-query parallelism is fine for
// a plan-choice illustration), active power multiplies by n.
func planAlt(model *energy.Model, work energy.Counters, n int, p energy.PState) opt.Cost {
	per := work.Scale(1 / float64(n))
	t := model.CPUTime(per, p)
	dyn := model.DynamicEnergy(work, p).Total()
	static := energy.StaticEnergy(p.Active, t) * energy.Joules(n)
	return opt.Cost{Time: t, Energy: dyn + static, Work: work}
}

func runE1(w io.Writer) error {
	points := E1Curve()
	tw := newTable(w)
	fmt.Fprintln(tw, "cap(W)\tcores\tfreq\tavg-lat\tp95-lat\tthroughput(q/s)\tJ/query\tplan-choice")
	for _, p := range points {
		fmt.Fprintf(tw, "%.0f\t%d\t%v\t%v\t%v\t%.1f\t%v\t%s\n",
			float64(p.Cap), p.Cores, p.Freq,
			p.AvgLatency.Round(10*time.Microsecond), p.P95Latency.Round(10*time.Microsecond),
			p.Throughput, p.JPerQuery, p.PlanChosen)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: tightening the cap trades response time for power;")
	fmt.Fprintln(w, "the plan choice abandons the fastest plan once it no longer fits the cap.")
	return nil
}
