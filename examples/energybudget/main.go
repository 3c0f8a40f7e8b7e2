// Energy budget: Figure 2 live.  The same query workload runs under a
// shrinking power cap; the scheduler throttles cores and frequency, and
// the optimizer's plan choice switches from the fastest plan to frugal
// ones — response time is traded for staying inside the constraint.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/experiments/coresim"
	"repro/internal/opt"
)

func main() {
	fmt.Println("sweeping the power cap over a fixed analytic workload (Fig. 2):")
	points := experiments.E1Curve()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cap\tcores\tfreq\tavg-latency\tthroughput\tJ/query\tplan")
	for _, p := range points {
		fmt.Fprintf(tw, "%v\t%d\t%v\t%v\t%.0f q/s\t%v\t%s\n",
			p.Cap, p.Cores, p.Freq, p.AvgLatency.Round(10*time.Microsecond),
			p.Throughput, p.JPerQuery, p.PlanChosen)
	}
	tw.Flush()

	// The same decision surface at the single-plan level: three ways to
	// run one query, priced in time and power; the budget picks.
	fmt.Println("\nper-query plan choice under an energy budget:")
	alts := []opt.Cost{
		{Time: 10 * time.Millisecond, Energy: 2.0},  // 200 W: all cores
		{Time: 40 * time.Millisecond, Energy: 1.2},  // 30 W: few cores
		{Time: 200 * time.Millisecond, Energy: 0.9}, // 4.5 W: one slow core
	}
	names := []string{"all-cores", "4-cores", "1-slow-core"}
	for _, budget := range []energy.Joules{3, 1.5, 1.0} {
		pick := coresim.PickUnderEnergyBudget(alts, budget)
		fmt.Printf("  budget %v   -> %s (%v, %v)\n",
			budget, names[pick], alts[pick].Time, alts[pick].Energy)
	}
	fmt.Println("\nreading: generous budgets buy latency; tight budgets buy joules —")
	fmt.Println("\"the system has to flexibly balance ... under a given energy constraint\".")
}
