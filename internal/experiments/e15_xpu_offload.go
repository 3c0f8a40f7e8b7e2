package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/xpu"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "xPU offload crossover (extension)",
		Claim: "\"as of now, only a limited number of operators show significant benefit when running on non-CPU hardware platforms ... research activities are required to look into more complex and non-traditional database operators\" (§III); hybrid init/work/finish operators (§IV.B)",
		Run:   runE15,
	})
}

// E15Row is one (device, ops/value, size) placement decision.
type E15Row struct {
	Device     string
	Ops        int
	N          int
	TimePick   xpu.Placement
	EnergyPick xpu.Placement
	CPUTime    time.Duration
	DevTime    time.Duration
	CPUJ       energy.Joules
	DevJ       energy.Joules
}

// E15Sweep prices CPU-vs-device placement across compute intensities and
// input sizes for the GPU and FPGA profiles.
func E15Sweep() []E15Row {
	m := energy.DefaultModel()
	devices := []*xpu.Device{xpu.DefaultGPU(), xpu.DefaultFPGA()}
	var out []E15Row
	for _, d := range devices {
		for _, ops := range []int{3, 16, 64} {
			for _, n := range []int{100_000, 10_000_000, 100_000_000} {
				prof := xpu.Profile{N: n, ValBytes: 8, OpsPerValue: ops}
				pt, cpu, dev := xpu.Decide(m, d, prof, xpu.MinTime)
				pe, _, _ := xpu.Decide(m, d, prof, xpu.MinEnergy)
				out = append(out, E15Row{
					Device: d.Name, Ops: ops, N: n,
					TimePick: pt, EnergyPick: pe,
					CPUTime: cpu.Time, DevTime: dev.Time,
					CPUJ: cpu.Energy, DevJ: dev.Energy,
				})
			}
		}
	}
	return out
}

func runE15(w io.Writer) error {
	rows := E15Sweep()
	tw := newTable(w)
	fmt.Fprintln(tw, "device\tops/value\tvalues\tcpu-time\tdev-time\tcpu-J\tdev-J\tmin-time-pick\tmin-energy-pick")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.0e\t%v\t%v\t%v\t%v\t%v\t%v\n",
			r.Device, r.Ops, float64(r.N),
			r.CPUTime.Round(time.Microsecond), r.DevTime.Round(time.Microsecond),
			r.CPUJ, r.DevJ, r.TimePick, r.EnergyPick)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: plain scans (3 ops/value) never offload — the PCIe link is the")
	fmt.Fprintln(w, "bottleneck, the paper's \"limited number of operators\" observation; compute-")
	fmt.Fprintln(w, "dense operators offload at scale, and the frugal FPGA wins min-energy picks")
	fmt.Fprintln(w, "that the hungry GPU loses.")
	return nil
}
