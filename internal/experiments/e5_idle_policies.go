package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/coresim"
	"repro/internal/experiments/synth"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "idle-power management: race-to-idle vs DVFS vs always-on",
		Claim: "\"energy can be saved, if individual hardware components are turned off to save idle power and increase the utilization of running components. As a consequence, the individual response time of a query may suffer\" (§IV)",
		Run:   runE5,
	})
}

// E5Row is one (policy, utilization) measurement.
type E5Row struct {
	Policy    coresim.Policy
	Rate      float64
	JPerQuery energy.Joules
	AvgLat    time.Duration
	P95Lat    time.Duration
	AvgPower  energy.Watts
	Freq      energy.Hertz
}

// E5Sweep simulates the three policies across load levels.
func E5Sweep() []E5Row {
	model := energy.DefaultModel()
	work := energy.Counters{Instructions: 12_000_000, BytesReadDRAM: 8 << 20, CacheMisses: 20_000}
	var out []E5Row
	for _, rate := range []float64{50, 150, 400, 900, 1500} {
		jobs := coresim.MakeJobs(synth.Poisson(21, 600, rate), work)
		for _, pol := range []coresim.Policy{coresim.AlwaysOn, coresim.RaceToIdle, coresim.DVFS} {
			r := coresim.Simulate(coresim.Config{Cores: 16, Model: model, Policy: pol, MemGB: 32}, jobs)
			out = append(out, E5Row{
				Policy: pol, Rate: rate,
				JPerQuery: r.EnergyPerJob, AvgLat: r.AvgLatency, P95Lat: r.P95Latency,
				AvgPower: r.AvgPower, Freq: r.PState.Freq,
			})
		}
	}
	return out
}

func runE5(w io.Writer) error {
	rows := E5Sweep()
	tw := newTable(w)
	fmt.Fprintln(tw, "rate(q/s)\tpolicy\tJ/query\tavg-lat\tp95-lat\tavg-power\tfreq")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f\t%v\t%v\t%v\t%v\t%v\t%v\n",
			r.Rate, r.Policy, r.JPerQuery,
			r.AvgLat.Round(10*time.Microsecond), r.P95Lat.Round(10*time.Microsecond),
			r.AvgPower, r.Freq)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: at low load race-to-idle/DVFS cut J/query sharply versus always-on;")
	fmt.Fprintln(w, "the gap closes as utilization rises, while p95 latency pays a small premium.")
	return nil
}
