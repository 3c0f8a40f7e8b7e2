package xpu_test

// Package xpu lives in internal/experiments/xpu, beside E15, the
// experiment that owns it; its tests keep this import path.

import (
	"testing"

	"repro/internal/energy"
	. "repro/internal/experiments/xpu"
)

func TestSimpleScansStayOnCPU(t *testing.T) {
	// The paper: "only a limited number of operators show significant
	// benefit when running on non-CPU hardware platforms."  A plain
	// streaming predicate (3 ops/value) is PCIe-bound and must stay put
	// at every size.
	m := energy.DefaultModel()
	gpu := DefaultGPU()
	for _, n := range []int{1e3, 1e6, 1e8} {
		p, cpu, dev := Decide(m, gpu, Profile{N: n, ValBytes: 8, OpsPerValue: 3}, MinTime)
		if p != OnCPU {
			t.Errorf("simple scan of %g values offloaded (cpu=%v dev=%v)", float64(n), cpu.Time, dev.Time)
		}
	}
}

func TestComputeDenseOperatorsOffload(t *testing.T) {
	// Compute-dense operators (frequent-itemset style, paper ref [8])
	// amortize the transfer: large inputs must offload under min-time.
	m := energy.DefaultModel()
	gpu := DefaultGPU()
	prof := func(n int) Profile { return Profile{N: n, ValBytes: 8, OpsPerValue: 64} }
	small, _, _ := Decide(m, gpu, prof(1_000), MinTime)
	if small != OnCPU {
		t.Error("tiny input must not pay the launch+transfer overhead")
	}
	big, cpu, dev := Decide(m, gpu, prof(20_000_000), MinTime)
	if big != OnDevice {
		t.Errorf("20M compute-dense values must offload: cpu=%v dev=%v", cpu.Time, dev.Time)
	}
	// Monotone crossover in input size.
	prev := OnCPU
	flips := 0
	for _, n := range []int{1e3, 1e4, 1e5, 1e6, 1e7, 2e7, 1e8} {
		p, _, _ := Decide(m, gpu, prof(int(n)), MinTime)
		if p != prev {
			flips++
			prev = p
		}
	}
	if flips != 1 {
		t.Errorf("placement must flip exactly once across sizes, flipped %d times", flips)
	}
}

func TestCrossoverInComputeIntensity(t *testing.T) {
	// At fixed size, sweeping ops/value must flip the decision once:
	// the paper's call to "look into more complex and non-traditional
	// database operators".
	m := energy.DefaultModel()
	gpu := DefaultGPU()
	prev := OnCPU
	flips := 0
	for _, ops := range []int{1, 3, 8, 16, 32, 64, 128} {
		p, _, _ := Decide(m, gpu, Profile{N: 10_000_000, ValBytes: 8, OpsPerValue: ops}, MinTime)
		if p != prev {
			flips++
			prev = p
		}
	}
	if flips != 1 || prev != OnDevice {
		t.Errorf("intensity sweep must flip once to the device, flips=%d final=%v", flips, prev)
	}
}

func TestEnergyObjectiveFavorsFPGA(t *testing.T) {
	// The FPGA is slower than the GPU but far more frugal; it must win
	// offloads under min-energy where the GPU loses them.
	m := energy.DefaultModel()
	prof := Profile{N: 20_000_000, ValBytes: 8, OpsPerValue: 64}
	_, _, gpuCost := Decide(m, DefaultGPU(), prof, MinEnergy)
	_, _, fpgaCost := Decide(m, DefaultFPGA(), prof, MinEnergy)
	if fpgaCost.Energy >= gpuCost.Energy {
		t.Errorf("FPGA must be more frugal: %v vs %v", fpgaCost.Energy, gpuCost.Energy)
	}
	place, cpu, dev := Decide(m, DefaultFPGA(), prof, MinEnergy)
	if place != OnDevice {
		t.Errorf("compute-dense work must offload to FPGA under min-energy: cpu=%v dev=%v",
			cpu.Energy, dev.Energy)
	}
}

func TestObjectivesCanDisagree(t *testing.T) {
	// The GPU is fast but hungry: there must be profiles where min-time
	// offloads and min-energy does not — objective changes placement.
	m := energy.DefaultModel()
	gpu := DefaultGPU()
	disagree := false
	for _, ops := range []int{16, 32, 64, 128, 256} {
		for _, n := range []int{1e6, 1e7, 1e8} {
			prof := Profile{N: int(n), ValBytes: 8, OpsPerValue: ops}
			pt, _, _ := Decide(m, gpu, prof, MinTime)
			pe, _, _ := Decide(m, gpu, prof, MinEnergy)
			if pt != pe {
				disagree = true
			}
		}
	}
	if !disagree {
		t.Error("expected at least one profile where the objectives disagree")
	}
}

func TestHybridOpPhases(t *testing.T) {
	m := energy.DefaultModel()
	gpu := DefaultGPU()
	h := &HybridOp{
		Name:      "itemset-mine",
		Work:      Profile{N: 30_000_000, ValBytes: 8, OpsPerValue: 64},
		InitWork:  energy.Counters{Instructions: 100_000},
		FinishOut: energy.Counters{Instructions: 500_000, BytesWrittenDRAM: 1 << 20},
	}
	plan := h.Plan(m, gpu, MinTime)
	if plan.Placement != OnDevice {
		t.Fatalf("compute-dense work phase should offload, got %v", plan.Placement)
	}
	if plan.Init.Time <= 0 || plan.Finish.Time <= 0 {
		t.Error("init/finish phases must run (on the CPU) and cost time")
	}
	tot := plan.Total()
	if tot.Time != plan.Init.Time+plan.WorkCost.Time+plan.Finish.Time {
		t.Error("total must sum sequential phases")
	}
	if tot.Energy <= plan.WorkCost.Energy {
		t.Error("total energy must include CPU phases")
	}
	// The same operator on a tiny input keeps everything on the CPU.
	h.Work.N = 1000
	if p := h.Plan(m, gpu, MinTime); p.Placement != OnCPU {
		t.Error("tiny hybrid op must stay on CPU")
	}
}

func TestDeviceWorkScalesWithInput(t *testing.T) {
	gpu := DefaultGPU()
	small := gpu.DeviceWork(Profile{N: 1_000_000, ValBytes: 8, OpsPerValue: 8})
	large := gpu.DeviceWork(Profile{N: 10_000_000, ValBytes: 8, OpsPerValue: 8})
	if large.Time <= small.Time || large.Energy <= small.Energy {
		t.Error("device cost must grow with input")
	}
}

func TestStrings(t *testing.T) {
	if OnCPU.String() != "cpu" || OnDevice.String() != "device" {
		t.Fatal("placement names wrong")
	}
	if Init.String() != "init" || Work.String() != "work" || Finish.String() != "finish" {
		t.Fatal("phase names wrong")
	}
}
