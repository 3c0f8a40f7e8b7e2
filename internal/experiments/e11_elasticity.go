package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiments/cluster"
	"repro/internal/experiments/synth"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "data-as-a-service: elastic vs static provisioning on a diurnal trace",
		Claim: "\"moving more and more services into cloud-like infrastructure with elasticity as one of the main drivers ... natively support 'elasticity in the large'\" (§II)",
		Run:   runE11,
	})
}

// E11Result pairs the two provisioning strategies.
type E11Result struct {
	Static  cluster.Report
	Elastic cluster.Report
}

// E11Run simulates one synthetic day at the given peak rate.
func E11Run(peak float64) E11Result {
	spec := cluster.DefaultNode()
	phases := synth.Diurnal(peak, time.Hour)
	peakNodes := int(peak/(spec.CapacityQPS*0.7)) + 1
	return E11Result{
		Static:  cluster.SimulateStatic(spec, peakNodes, phases),
		Elastic: cluster.SimulateElastic(spec, cluster.DefaultController(peakNodes), phases),
	}
}

func runE11(w io.Writer) error {
	res := E11Run(6000)
	tw := newTable(w)
	fmt.Fprintln(tw, "phase\trate(q/s)\tstatic-nodes\tstatic-kJ\telastic-nodes\telastic-kJ\telastic-dropped")
	for i := range res.Static.Phases {
		s, e := res.Static.Phases[i], res.Elastic.Phases[i]
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.0f\t%d\t%.0f\t%.0f\n",
			i, s.Rate, s.Nodes, float64(s.Energy)/1000, e.Nodes, float64(e.Energy)/1000, e.Dropped)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntotals: static %.0f kJ (%.2f J/query), elastic %.0f kJ (%.2f J/query), elastic drop %.4f%%\n",
		float64(res.Static.TotalEnergy)/1000, float64(res.Static.EnergyPerQ),
		float64(res.Elastic.TotalEnergy)/1000, float64(res.Elastic.EnergyPerQ),
		100*res.Elastic.TotalDrop/res.Elastic.TotalQ)
	fmt.Fprintln(w, "shape: elastic scaling tracks the trough and cuts total energy markedly;")
	fmt.Fprintln(w, "the reactive lag costs a small SLO violation budget during ramps.")
	return nil
}
