package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiments/numa"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "NUMA-aware scheduling and explicit vs coherent sharing (extension)",
		Claim: "\"modern database systems exactly have to know the allocation scheme of the data in order to compute an optimal schedule ... cache coherency should not always automatically be ensured at the hardware level\" (§III)",
		Run:   runE16,
	})
}

// E16Schedules compares NUMA-aware vs oblivious parallel scans.
func E16Schedules() (aware, oblivious numa.ScheduleReport) {
	topo := numa.Default2Socket()
	rng := workload.NewRNG(4)
	n := 128
	partBytes := make([]uint64, n)
	placement := make([]int, n)
	for i := range partBytes {
		partBytes[i] = uint64(64+rng.Intn(192)) << 20
		placement[i] = i % topo.Sockets
	}
	aware = topo.EvaluateSchedule(partBytes, placement, numa.AwareAssign(placement))
	oblivious = topo.EvaluateSchedule(partBytes, placement, numa.ObliviousAssign(n, topo.Sockets, 9))
	return aware, oblivious
}

// E16SharingRow is one coherency-ablation point.
type E16SharingRow struct {
	Rounds   int
	Coherent time.Duration
	Explicit time.Duration
}

// E16Sharing sweeps repeated access rounds over a remotely homed 256 MB
// structure.
func E16Sharing() []E16SharingRow {
	topo := numa.Default2Socket()
	const bytes = 256 << 20
	var out []E16SharingRow
	for _, rounds := range []int{1, 2, 4, 8, 16} {
		dc, _ := topo.SharedAccessCost(numa.Coherent, bytes, rounds)
		de, _ := topo.SharedAccessCost(numa.Explicit, bytes, rounds)
		out = append(out, E16SharingRow{Rounds: rounds, Coherent: dc, Explicit: de})
	}
	return out
}

func runE16(w io.Writer) error {
	aware, obliv := E16Schedules()
	tw := newTable(w)
	fmt.Fprintln(tw, "schedule\tmakespan\ttotal-scan-time\tremote-traffic")
	fmt.Fprintf(tw, "NUMA-aware\t%v\t%v\t%.0f%%\n",
		aware.Makespan.Round(time.Millisecond), aware.TotalTime.Round(time.Millisecond),
		100*aware.RemoteFraction())
	fmt.Fprintf(tw, "oblivious\t%v\t%v\t%.0f%%\n",
		obliv.Makespan.Round(time.Millisecond), obliv.TotalTime.Round(time.Millisecond),
		100*obliv.RemoteFraction())
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nrepeated access to a remotely homed 256 MB structure:")
	tw = newTable(w)
	fmt.Fprintln(tw, "rounds\tcoherent\texplicit-placement")
	for _, r := range E16Sharing() {
		fmt.Fprintf(tw, "%d\t%v\t%v\n", r.Rounds,
			r.Coherent.Round(time.Millisecond), r.Explicit.Round(time.Millisecond))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: knowing the allocation scheme converts remote traffic into local;")
	fmt.Fprintln(w, "past a couple of reuse rounds, one explicit transfer beats per-access coherency.")
	return nil
}
