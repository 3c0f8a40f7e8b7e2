// Command eimdb-bench regenerates every table and series recorded in
// EXPERIMENTS.md.  Each experiment (E1–E24) corresponds to a claim of the
// paper; run them all or one at a time:
//
//	eimdb-bench              # run everything
//	eimdb-bench -exp E3      # one experiment
//	eimdb-bench -list        # list experiments with their claims
//
// It is also the open-loop workload driver for the multi-query
// scheduler: -replay replays a Zipf point-query storm at a configurable
// offered QPS through a core.Loop (Loop.Replay), printing the fleet
// schedule and energy books.
//
//	eimdb-bench -replay -qps 100000 -n 200 -budget 4 -batch -arbitrate
//	eimdb-bench -replay -batch=false -arbitrate=false   # naive baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E24) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")

	replay := flag.Bool("replay", false, "open-loop workload driver mode")
	qps := flag.Float64("qps", 100_000, "replay: offered arrival rate (queries/second)")
	nq := flag.Int("n", 200, "replay: number of queries in the storm")
	rows := flag.Int("rows", 1<<18, "replay: orders table cardinality")
	zipf := flag.Float64("zipf", 1.3, "replay: key-skew exponent (hotter > 1)")
	ncust := flag.Int("ncust", 40, "replay: distinct customer keys drawn")
	budget := flag.Int("budget", 4, "replay: global core budget")
	queue := flag.Int("queue", 0, "replay: admission queue depth (0 = unbounded)")
	batch := flag.Bool("batch", true, "replay: shared-scan batching of lookalike queries")
	arbitrate := flag.Bool("arbitrate", true, "replay: P-state DOP arbitration (false = naive all-cores FCFS)")
	seed := flag.Uint64("seed", 17, "replay: workload seed")
	flag.Parse()

	if *replay {
		if err := runReplay(*rows, *nq, *qps, *zipf, *ncust, *seed, core.SchedulerConfig{
			Budget: *budget, QueueDepth: *queue, BatchScans: *batch, Arbitrate: *arbitrate,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		fmt.Printf("claim: %s\n", e.Claim)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, err := experiments.ByID(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run(e)
}

// runReplay replays the storm through a scheduling loop.  The
// arrival script is the shared workload.Script form — the same bytes
// E21 submits and the serving front end (eimdb-serve, E22) replays, so
// the batch driver and the online server exercise one workload format.
func runReplay(rows, nq int, qps, zipfS float64, ncust int, seed uint64, cfg core.SchedulerConfig) error {
	eng, err := experiments.OrdersEngine(rows)
	if err != nil {
		return err
	}
	storm, err := experiments.Storm(nq, qps, zipfS, ncust, seed)
	if err != nil {
		return err
	}
	fmt.Printf("replay: %d queries over %d rows, zipf %.2f over %d keys, offered %.0f q/s\n",
		nq, rows, zipfS, ncust, qps)
	fmt.Printf("sched:  budget=%d queue-depth=%d batch=%v arbitrate=%v\n",
		cfg.Budget, cfg.QueueDepth, cfg.BatchScans, cfg.Arbitrate)

	rep := eng.NewLoop(cfg).Replay(storm)
	f := rep.Fleet
	fmt.Printf("\ncompleted %d, rejected %d, shared groups %d (+%d riders)\n",
		f.Completed, f.Rejected, f.SharedGroups, f.SharedTasks)
	fmt.Printf("latency: avg %v, p95 %v, makespan %v\n",
		rep.AvgLatency.Round(10*time.Microsecond), rep.P95Latency.Round(10*time.Microsecond),
		f.Makespan.Round(10*time.Microsecond))
	fmt.Printf("energy:  fleet %v (%v/query), dynamic %v + static %v, batching saved %v\n",
		rep.FleetEnergy(), rep.EnergyPerQuery(), rep.FleetDynamic, f.Static, rep.SavedDynamic)
	fmt.Printf("work:    physical %.1f MB DRAM vs %.1f MB attributed\n",
		float64(rep.Physical.BytesReadDRAM)/1e6, float64(rep.Attributed.BytesReadDRAM)/1e6)
	return nil
}
