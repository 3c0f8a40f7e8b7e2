package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "multi-query scheduling: shared-scan batching + core-budget arbitration under an open-loop Zipf storm (extension)",
		Claim: "\"energy efficiency has to be considered a key optimization goal\" (§I) across CONCURRENT queries: arbitrating a shared core budget with the P-state DOP pricer and batching lookalike scans serves the same queries — byte-identical relations, invariant per-query counters — at strictly lower fleet energy per query than naive all-queries-at-max-DOP dispatch",
		Run:   runE21,
	})
}

// E21Row is one (arm, budget) cell of the sweep.
type E21Row struct {
	Arm          string // "naive" or "managed"
	Budget       int
	Completed    int
	SharedGroups int
	SharedTasks  int
	AvgLatency   time.Duration
	P95Latency   time.Duration
	Makespan     time.Duration
	FleetJ       energy.Joules // measured dynamic + scheduled static
	JPerQuery    energy.Joules
	SavedDynamic energy.Joules // batching's dynamic-energy saving
	PhysBytes    uint64        // DRAM bytes the fleet physically streamed
}

// Storm builds the backlog of nq point aggregations over Zipf-hot
// customers arriving as an open-loop Poisson process at the given
// offered QPS, all under min-energy objectives (the goal the arbitrated
// arm prices cores with), ready for core.Loop.Replay.  The storm itself
// is workload.PointStorm — the one arrival script E21, E22, the serving
// harness, and the eimdb-bench -replay driver all share — so every
// driver reproduces the experiment's workload shape.
func Storm(nq int, qps, zipfS float64, nCust int, seed uint64) ([]core.Submission, error) {
	arrivals := workload.PointStorm(seed, nq, qps, zipfS, nCust).Arrivals
	subs := make([]core.Submission, len(arrivals))
	for i, a := range arrivals {
		q, err := sql.Parse(a.SQL)
		if err != nil {
			return nil, err
		}
		subs[i] = core.Submission{Arrival: a.At, Q: q, Objective: opt.MinEnergy}
	}
	return subs, nil
}

// E21Sweep replays the same open-loop storm through the naive arm (every
// query dispatched alone at the full budget, no sharing) and the managed
// arm (admission + P-state budget arbitration + shared-scan batching) at
// each core budget, asserting along the way that every query's relation
// is byte-identical in all cells and that per-query attributed counters
// never move — the scheduler may only change WHEN and HOW work runs,
// never WHAT it computes.  An explicit arms list restricts the sweep
// (the benchmark prices one arm per sub-benchmark); default is both.
func E21Sweep(nRows, nQueries int, qps float64, budgets []int, arms ...string) ([]E21Row, error) {
	const nCust = 40
	if len(arms) == 0 {
		arms = []string{"naive", "managed"}
	}
	var rows []E21Row
	var baseline []*core.SubmissionResult
	record := func(arm string, budget int, rep *core.ScheduleReport) error {
		if rep.Fleet.Rejected != 0 {
			return fmt.Errorf("experiments: E21 %s/b%d rejected %d queries with no queue bound", arm, budget, rep.Fleet.Rejected)
		}
		if baseline == nil {
			baseline = make([]*core.SubmissionResult, len(rep.Results))
			for i := range rep.Results {
				baseline[i] = &rep.Results[i]
			}
		} else {
			for i := range rep.Results {
				if !reflect.DeepEqual(rep.Results[i].Rel, baseline[i].Rel) {
					return fmt.Errorf("experiments: E21 %s/b%d query %d relation differs", arm, budget, i)
				}
				if rep.Results[i].Work != baseline[i].Work {
					return fmt.Errorf("experiments: E21 %s/b%d query %d counters differ", arm, budget, i)
				}
			}
		}
		rows = append(rows, E21Row{
			Arm: arm, Budget: budget,
			Completed:    rep.Fleet.Completed,
			SharedGroups: rep.Fleet.SharedGroups,
			SharedTasks:  rep.Fleet.SharedTasks,
			AvgLatency:   rep.AvgLatency,
			P95Latency:   rep.P95Latency,
			Makespan:     rep.Fleet.Makespan,
			FleetJ:       rep.FleetEnergy(),
			JPerQuery:    rep.EnergyPerQuery(),
			SavedDynamic: rep.SavedDynamic,
			PhysBytes:    rep.Physical.BytesReadDRAM,
		})
		return nil
	}
	storm, err := Storm(nQueries, qps, 1.3, nCust, 17)
	if err != nil {
		return nil, err
	}
	for _, budget := range budgets {
		for _, arm := range arms {
			e, err := ordersEngine(nRows)
			if err != nil {
				return nil, err
			}
			managed := arm == "managed"
			rep := e.NewLoop(core.SchedulerConfig{
				Budget:     budget,
				BatchScans: managed,
				Arbitrate:  managed,
			}).Replay(storm)
			if err := record(arm, budget, rep); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

func runE21(w io.Writer) error {
	rows, err := E21Sweep(1<<18, 96, 100_000, []int{2, 4, 8})
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "arm\tbudget\tdone\tshared-grp\triders\tavg-lat\tp95-lat\tmakespan\tfleet-J\tJ/query\tsaved-J\tphys-MB")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%.3f\t%.4f\t%.3f\t%.1f\n",
			r.Arm, r.Budget, r.Completed, r.SharedGroups, r.SharedTasks,
			r.AvgLatency.Round(10*time.Microsecond), r.P95Latency.Round(10*time.Microsecond),
			r.Makespan.Round(10*time.Microsecond),
			float64(r.FleetJ), float64(r.JPerQuery), float64(r.SavedDynamic),
			float64(r.PhysBytes)/1e6)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: every cell returns byte-identical per-query relations and counters;")
	fmt.Fprintln(w, "the managed arm streams fewer physical bytes (shared scans) and spends less")
	fmt.Fprintln(w, "fleet energy per query (interior-DOP arbitration + batching) at every budget.")
	return nil
}
