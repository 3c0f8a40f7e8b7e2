package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/experiments/locks"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "synchronization scaling of parallel aggregation",
		Claim: "\"splitting an aggregation operator ... into hundreds of different threads eventually implies high synchronization overhead ... even read-only synchronization already shows a significant serial part dramatically reducing the speedup\" (§III, [6])",
		Run:   runE4,
	})
}

// E4Row is one (scheme, workers) measurement.
type E4Row struct {
	Scheme  locks.Scheme
	Workers int
	Elapsed time.Duration
	Speedup float64
	Aborts  uint64
}

// E4Sweep measures wall-clock scaling of the five synchronization
// schemes.  This experiment uses real goroutine parallelism, so absolute
// numbers depend on the host; the *shape* (global lock flattens, the
// others scale) is the reproduced result.
func E4Sweep(ops, groups int) []E4Row {
	maxW := runtime.GOMAXPROCS(0)
	workerSteps := []int{1, 2, 4}
	if maxW >= 8 {
		workerSteps = append(workerSteps, 8)
	}
	if maxW > 8 {
		workerSteps = append(workerSteps, maxW)
	}
	var out []E4Row
	for _, scheme := range []locks.Scheme{locks.GlobalLock, locks.ShardedLock, locks.AtomicAdd, locks.HTMSim, locks.Partitioned} {
		var base time.Duration
		for _, wkr := range workerSteps {
			start := time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
			r := locks.RunAggregation(scheme, wkr, ops, groups, 1.1, 99)
			elapsed := time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
			if wkr == 1 {
				base = elapsed
			}
			sp := 0.0
			if elapsed > 0 {
				sp = base.Seconds() / elapsed.Seconds()
			}
			out = append(out, E4Row{Scheme: scheme, Workers: wkr, Elapsed: elapsed, Speedup: sp, Aborts: r.Aborts})
		}
	}
	return out
}

func runE4(w io.Writer) error {
	rows := E4Sweep(4_000_000, 256)
	tw := newTable(w)
	fmt.Fprintln(tw, "scheme\tworkers\ttime\tspeedup\taborts")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%d\t%v\t%.2fx\t%d\n",
			r.Scheme, r.Workers, r.Elapsed.Round(time.Millisecond), r.Speedup, r.Aborts)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: the global lock's speedup flattens (Amdahl's serial part);")
	fmt.Fprintln(w, "sharded/atomic/HTM scale, and partitioned (no sharing) scales best.")
	return nil
}
