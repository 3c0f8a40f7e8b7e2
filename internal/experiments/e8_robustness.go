package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/robust"
)

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "robustness: rerun vs checkpoint-resume under failures",
		Claim: "\"while short read requests can be easily repeated, intermediate results of long-running analytical queries ... have to be preserved and transparently used for a restart\" (§IV)",
		Run:   runE8,
	})
}

// E8Row is one (query length, failure point, policy) outcome.
type E8Row struct {
	Stages   int
	FailFrac float64
	Policy   robust.Policy
	Total    time.Duration
	Wasted   time.Duration
	Overhead time.Duration
}

// E8Sweep runs short and long queries with failures at varying progress.
func E8Sweep() []E8Row {
	var out []E8Row
	for _, stages := range []int{4, 40} {
		q := robust.Query{
			Stages:    stages,
			StageTime: 250 * time.Millisecond,
			StageWork: energy.Counters{Instructions: 50_000_000, BytesReadDRAM: 64 << 20},
			CkptTime:  100 * time.Millisecond,
			CkptBytes: 32 << 20,
		}
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			fails := robust.FailuresAtProgress(q, frac)
			for _, p := range []robust.Policy{robust.Rerun, robust.Checkpoint(5)} {
				rep := robust.Run(q, p, fails)
				out = append(out, E8Row{
					Stages: stages, FailFrac: frac, Policy: p,
					Total: rep.TotalTime, Wasted: rep.WastedTime, Overhead: rep.CkptTime,
				})
			}
		}
	}
	return out
}

func runE8(w io.Writer) error {
	rows := E8Sweep()
	tw := newTable(w)
	fmt.Fprintln(tw, "stages\tfail-at\tpolicy\ttotal\twasted\tckpt-overhead")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f%%\t%v\t%v\t%v\t%v\n",
			r.Stages, r.FailFrac*100, r.Policy,
			r.Total.Round(time.Millisecond), r.Wasted.Round(time.Millisecond),
			r.Overhead.Round(time.Millisecond))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: for long queries failing late, rerun wastes nearly the whole query while")
	fmt.Fprintln(w, "checkpoint-5 bounds the loss to one interval; for short queries the checkpoint")
	fmt.Fprintln(w, "overhead dominates and rerun is competitive — matching the paper's asymmetry.")
	return nil
}
