package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/synth"
	"repro/internal/wal"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "multi-level reliability: commit cost per QoS level + group commit",
		Claim: "\"intermediate results ... could be placed in some cheap memory ... REDO-log information should be stored in a replicated way ... the system can then decide for the most optimal way to achieve the required service-level\" (§III)",
		Run:   runE9,
	})
}

// E9Row is one (level, group-commit window) measurement.
type E9Row struct {
	Level   wal.Level
	Window  time.Duration
	AvgLat  time.Duration
	P95Lat  time.Duration
	Batches int
	JPerTxn energy.Joules
}

// E9Sweep simulates 20k transactions at 100k txn/s across QoS levels and
// group-commit windows.
func E9Sweep() []E9Row {
	model := energy.DefaultModel()
	cfg := wal.DefaultConfig()
	gaps := synth.Poisson(31, 20_000, 100_000)
	arrivals := make([]time.Duration, len(gaps))
	var at time.Duration
	for i, g := range gaps {
		at += g
		arrivals[i] = at
	}
	var out []E9Row
	for _, level := range []wal.Level{wal.Volatile, wal.Local, wal.Repl2, wal.Repl3} {
		for _, win := range []time.Duration{0, 64 * time.Microsecond, 256 * time.Microsecond} {
			rep := SimulateGroupCommit(cfg, arrivals, 96, win, level)
			j := model.DynamicEnergy(rep.TotalWork, model.Core.MaxPState()).Total() /
				energy.Joules(rep.Txns)
			out = append(out, E9Row{
				Level: level, Window: win,
				AvgLat: rep.AvgLatency, P95Lat: rep.P95Latency,
				Batches: rep.Batches, JPerTxn: j,
			})
		}
	}
	return out
}

func runE9(w io.Writer) error {
	rows := E9Sweep()
	tw := newTable(w)
	fmt.Fprintln(tw, "level\twindow\tavg-commit-lat\tp95\tbatches\tJ/txn")
	for _, r := range rows {
		fmt.Fprintf(tw, "%v\t%v\t%v\t%v\t%d\t%v\n",
			r.Level, r.Window, r.AvgLat.Round(time.Microsecond),
			r.P95Lat.Round(time.Microsecond), r.Batches, r.JPerTxn)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: latency and J/txn rise with the QoS level (volatile -> repl-3);")
	fmt.Fprintln(w, "group-commit windows cut per-txn flush energy at a bounded latency cost.")
	return nil
}

// GroupCommitReport summarizes a simulated group-commit run.
type GroupCommitReport struct {
	Txns          int
	Batches       int
	AvgLatency    time.Duration
	P95Latency    time.Duration
	TotalWork     energy.Counters
	EnergyPerTxn  energy.Joules // filled by the caller's model if desired
	BytesPerBatch uint64
}

// SimulateGroupCommit runs txn arrivals (offsets) of txnBytes each through
// a group-commit window at the given level: transactions arriving within
// one window share a single flush/replication.  Window 0 degenerates to
// per-transaction commits.
func SimulateGroupCommit(cfg wal.Config, arrivals []time.Duration, txnBytes uint64, window time.Duration, level wal.Level) GroupCommitReport {
	rep := GroupCommitReport{Txns: len(arrivals)}
	if len(arrivals) == 0 {
		return rep
	}
	flushCost := func(batch int) (time.Duration, energy.Counters) {
		bytes := txnBytes * uint64(batch)
		var w energy.Counters
		w.BytesWrittenDRAM += bytes
		var lat time.Duration
		if level != wal.Volatile {
			lat += cfg.FlushLatency
			w.BytesWrittenSSD += bytes
			if k := level.Replicas(); k > 0 && cfg.Link != nil {
				d, c := cfg.Link.Ship(bytes)
				lat += d + cfg.Link.Latency
				c.BytesSentLink *= uint64(k)
				c.BytesRecvLink *= uint64(k)
				c.Messages = c.Messages*uint64(k) + uint64(k)
				w.Add(c)
				w.BytesWrittenSSD += bytes * uint64(k)
			}
		}
		return lat, w
	}
	var lats []time.Duration
	i := 0
	for i < len(arrivals) {
		// Batch: everything arriving within [arrivals[i], arrivals[i]+window].
		end := arrivals[i] + window
		j := i
		for j < len(arrivals) && arrivals[j] <= end {
			j++
		}
		lat, w := flushCost(j - i)
		rep.TotalWork.Add(w)
		rep.Batches++
		rep.BytesPerBatch = txnBytes * uint64(j-i)
		for k := i; k < j; k++ {
			// Each txn waits for the window to close, then the flush.
			lats = append(lats, end-arrivals[k]+lat)
		}
		i = j
	}
	rep.AvgLatency, rep.P95Latency = energy.LatencySummary(lats)
	return rep
}
