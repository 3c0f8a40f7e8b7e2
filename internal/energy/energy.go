// Package energy provides the calibrated analytical energy model that the
// whole engine reports into.
//
// The paper (Lehner, DATE 2013) argues that energy efficiency must be a
// first-class optimization goal next to response time and throughput.  A
// physical reproduction would read RAPL or external power meters; this
// package substitutes a deterministic accounting model: operators record
// the work they perform (instructions, DRAM traffic, cache misses, link
// bytes, ...) in a Counters value, and Model converts counters plus the
// schedule (which cores ran at which P-state for how long) into joules and
// simulated seconds.  The constants in DefaultModel follow published
// per-operation energies for commodity 2013-era servers; all experiment
// conclusions depend only on their relative magnitudes.
//
// Counter conventions: the byte counters record PHYSICAL movement — a
// scan over compressed column segments charges BytesReadDRAM for the
// compressed bytes it streams (plus decode Instructions), not for the
// logical width of the data, which is how operating on compressed
// segments shows up as an energy saving (experiment E19).  The tuple
// counters record LOGICAL work — TuplesIn/TuplesOut are storage-format-
// and parallelism-invariant, so identical queries over identical data
// charge identical row counters at any DOP and any storage layout.
package energy

import (
	"fmt"
	"slices"
	"time"
)

// Joules is an amount of energy.
type Joules float64

// Watts is power (joules per second).
type Watts float64

// Hertz is a clock frequency.
type Hertz float64

// String formats a Joules value with an adaptive SI prefix.
func (j Joules) String() string {
	switch {
	case j < 0:
		return "-" + (-j).String()
	case j >= 1:
		return fmt.Sprintf("%.3f J", float64(j))
	case j >= 1e-3:
		return fmt.Sprintf("%.3f mJ", float64(j)*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3f uJ", float64(j)*1e6)
	default:
		return fmt.Sprintf("%.3f nJ", float64(j)*1e9)
	}
}

// String formats a Watts value.
func (w Watts) String() string { return fmt.Sprintf("%.2f W", float64(w)) }

// String formats a frequency in GHz.
func (h Hertz) String() string { return fmt.Sprintf("%.2f GHz", float64(h)/1e9) }

// PState is a voltage/frequency operating point of a core: the frequency it
// runs at and the power it draws while actively executing at that point.
type PState struct {
	Freq   Hertz
	Active Watts
}

// CState is an idle state of a core.  Deeper states draw less power but
// take longer to wake from.
type CState struct {
	Name        string
	Power       Watts
	WakeLatency time.Duration
}

// CoreSpec describes one CPU core: its available P-states (sorted by
// ascending frequency), its idle and parked C-states, and a flat
// instructions-per-cycle estimate used to turn instruction counts into
// time.
type CoreSpec struct {
	PStates []PState
	Idle    CState
	Parked  CState
	Off     CState
	IPC     float64
}

// MaxPState returns the highest-frequency operating point.
func (c CoreSpec) MaxPState() PState { return c.PStates[len(c.PStates)-1] }

// Model holds the per-unit energy costs and component specifications used
// to account work into joules and simulated time.  All per-unit costs are
// expressed in joules so arithmetic stays in one unit.
type Model struct {
	Core CoreSpec

	// Dynamic per-event energies.
	PerInstr      Joules // energy per retired instruction at max P-state
	PerByteDRAM   Joules // streaming DRAM traffic, per byte
	PerCacheMiss  Joules // full cache-line fetch (latency-bound access)
	PerBranchMiss Joules // pipeline flush
	PerByteLink   Joules // NIC + switch, per byte on the wire
	PerMsgLink    Joules // fixed per-message overhead
	PerByteSSD    Joules
	PerByteHDD    Joules

	// Static power of non-CPU components.
	DRAMStaticPerGB Watts
	HDDIdle         Watts
	SSDIdle         Watts
	LinkIdle        Watts

	// Timing parameters for the simulated-time account.
	DRAMMissLatency time.Duration // latency of one cache-line miss
	MissOverlap     float64       // fraction of miss latency hidden by MLP, in [0,1)
}

// DefaultModel returns the calibrated model used throughout the experiment
// suite.  Constants approximate a 2013-era two-socket Xeon server:
// ~0.4 nJ per instruction, ~60 pJ per streamed DRAM byte, ~12 nJ per
// random cache-line miss, ~8 nJ per network byte, DVFS points between
// 1.2 GHz/6 W and 3.0 GHz/21 W per core.
func DefaultModel() *Model {
	return &Model{
		Core: CoreSpec{
			PStates: []PState{
				{Freq: 1.2e9, Active: 6},
				{Freq: 1.8e9, Active: 9},
				{Freq: 2.4e9, Active: 14},
				{Freq: 3.0e9, Active: 21},
			},
			Idle:   CState{Name: "C1", Power: 1.5, WakeLatency: 2 * time.Microsecond},
			Parked: CState{Name: "C6", Power: 0.3, WakeLatency: 50 * time.Microsecond},
			Off:    CState{Name: "off", Power: 0, WakeLatency: 10 * time.Millisecond},
			IPC:    1.5,
		},
		PerInstr:      0.4e-9,
		PerByteDRAM:   60e-12,
		PerCacheMiss:  12e-9,
		PerBranchMiss: 5e-9,
		PerByteLink:   8e-9,
		PerMsgLink:    2e-6,
		PerByteSSD:    2.5e-9,
		PerByteHDD:    53e-9,

		DRAMStaticPerGB: 0.4,
		HDDIdle:         5,
		SSDIdle:         1.2,
		LinkIdle:        2,

		DRAMMissLatency: 90 * time.Nanosecond,
		MissOverlap:     0.6,
	}
}

// Breakdown splits an energy total by component, so experiments can report
// where the joules went.
type Breakdown struct {
	CPU    Joules // dynamic instruction + branch energy
	DRAM   Joules // dynamic memory traffic
	Link   Joules // network
	Disk   Joules // SSD + HDD traffic
	Static Joules // idle/static power integrated over elapsed time
}

// Total returns the sum of all components.
func (b Breakdown) Total() Joules { return b.CPU + b.DRAM + b.Link + b.Disk + b.Static }

// Add accumulates another breakdown into b.
// String renders the breakdown as a single line.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%v cpu=%v dram=%v link=%v disk=%v static=%v",
		b.Total(), b.CPU, b.DRAM, b.Link, b.Disk, b.Static)
}

// instrScale returns the dynamic-energy scale factor for running at p
// rather than the max P-state.  Dynamic energy scales roughly with V^2 and
// voltage scales roughly linearly with frequency in the DVFS range, so we
// use (f/fmax)^2 clamped below by a leakage floor.
func (m *Model) instrScale(p PState) float64 {
	fmax := float64(m.Core.MaxPState().Freq)
	r := float64(p.Freq) / fmax
	s := r * r
	if s < 0.25 {
		s = 0.25
	}
	return s
}

// DynamicEnergy converts work counters into dynamic (activity-proportional)
// energy, assuming the CPU-bound part ran at P-state p.
func (m *Model) DynamicEnergy(c Counters, p PState) Breakdown {
	s := Joules(m.instrScale(p))
	return Breakdown{
		CPU: s*Joules(c.Instructions)*m.PerInstr +
			Joules(c.BranchMisses)*m.PerBranchMiss,
		DRAM: Joules(c.BytesReadDRAM+c.BytesWrittenDRAM)*m.PerByteDRAM +
			Joules(c.CacheMisses)*m.PerCacheMiss,
		Link: Joules(c.BytesSentLink+c.BytesRecvLink)*m.PerByteLink +
			Joules(c.Messages)*m.PerMsgLink,
		Disk: Joules(c.BytesReadSSD+c.BytesWrittenSSD)*m.PerByteSSD +
			Joules(c.BytesReadHDD+c.BytesWrittenHDD)*m.PerByteHDD,
	}
}

// CPUTime estimates how long the counted work occupies one core at P-state
// p: instruction time plus the non-overlapped part of cache-miss stalls.
func (m *Model) CPUTime(c Counters, p PState) time.Duration {
	if p.Freq <= 0 {
		p = m.Core.MaxPState()
	}
	instrSec := float64(c.Instructions) / (m.Core.IPC * float64(p.Freq))
	missSec := float64(c.CacheMisses) * m.DRAMMissLatency.Seconds() * (1 - m.MissOverlap)
	return time.Duration((instrSec + missSec) * float64(time.Second))
}

// StaticEnergy integrates a constant power draw over a duration.
func StaticEnergy(p Watts, d time.Duration) Joules {
	return Joules(float64(p) * d.Seconds())
}

// EDP returns the energy-delay product, a standard efficiency figure of
// merit: lower is better.
func EDP(e Joules, d time.Duration) float64 { return float64(e) * d.Seconds() }

// LatencySummary sorts lats in place and returns their mean and 95th
// percentile (the element at len·95/100) — the latency line of every
// schedule, replay and group-commit report.  Empty input reports zeros.
func LatencySummary(lats []time.Duration) (avg, p95 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	slices.Sort(lats)
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return sum / time.Duration(len(lats)), lats[len(lats)*95/100]
}
