package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultModelSane(t *testing.T) {
	m := DefaultModel()
	if len(m.Core.PStates) < 2 {
		t.Fatalf("need at least two P-states, got %d", len(m.Core.PStates))
	}
	for i := 1; i < len(m.Core.PStates); i++ {
		lo, hi := m.Core.PStates[i-1], m.Core.PStates[i]
		if hi.Freq <= lo.Freq {
			t.Errorf("P-states not sorted by frequency: %v then %v", lo, hi)
		}
		if hi.Active <= lo.Active {
			t.Errorf("higher frequency must draw more power: %v then %v", lo, hi)
		}
	}
	if m.Core.Idle.Power <= m.Core.Parked.Power {
		t.Errorf("idle power %v should exceed parked power %v", m.Core.Idle.Power, m.Core.Parked.Power)
	}
	if m.PerByteHDD <= m.PerByteSSD {
		t.Errorf("HDD per-byte energy should exceed SSD: %v vs %v", m.PerByteHDD, m.PerByteSSD)
	}
}

func TestCountersAddAndScale(t *testing.T) {
	a := Counters{Instructions: 100, BytesReadDRAM: 1000, CacheMisses: 10}
	b := Counters{Instructions: 50, BytesSentLink: 8, Messages: 1}
	a.Add(b)
	if a.Instructions != 150 || a.BytesSentLink != 8 || a.Messages != 1 {
		t.Fatalf("Add produced %+v", a)
	}
	h := a.Scale(0.5)
	if h.Instructions != 75 || h.BytesReadDRAM != 500 {
		t.Fatalf("Scale(0.5) produced %+v", h)
	}
}

func TestCountersAddCommutative(t *testing.T) {
	f := func(x, y Counters) bool {
		a, b := x, y
		a.Add(y)
		b.Add(x)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDynamicEnergyMonotoneInWork(t *testing.T) {
	m := DefaultModel()
	p := m.Core.MaxPState()
	small := Counters{Instructions: 1000, BytesReadDRAM: 4096}
	big := Counters{Instructions: 2000, BytesReadDRAM: 8192}
	if m.DynamicEnergy(big, p).Total() <= m.DynamicEnergy(small, p).Total() {
		t.Error("more work must cost more dynamic energy")
	}
}

func TestDVFSTimeEnergyTradeoff(t *testing.T) {
	// Lower frequency: longer busy time, lower dynamic energy per
	// instruction (V^2 scaling).  This is the physical behaviour the
	// scheduler experiments rely on.
	m := DefaultModel()
	c := Counters{Instructions: 3_000_000}
	low, high := m.Core.PStates[0], m.Core.MaxPState()
	dLow, eLow := m.CPUTime(c, low), m.DynamicEnergy(c, low)
	dHigh, eHigh := m.CPUTime(c, high), m.DynamicEnergy(c, high)
	if dLow <= dHigh {
		t.Errorf("low frequency must be slower: %v vs %v", dLow, dHigh)
	}
	if eLow.CPU >= eHigh.CPU {
		t.Errorf("low frequency must have lower dynamic CPU energy: %v vs %v", eLow.CPU, eHigh.CPU)
	}
}

func TestCPUTimeIncludesMissStalls(t *testing.T) {
	m := DefaultModel()
	p := m.Core.MaxPState()
	noMiss := m.CPUTime(Counters{Instructions: 1_000_000}, p)
	withMiss := m.CPUTime(Counters{Instructions: 1_000_000, CacheMisses: 100_000}, p)
	if withMiss <= noMiss {
		t.Errorf("cache misses must add stall time: %v vs %v", withMiss, noMiss)
	}
}

func TestStaticEnergy(t *testing.T) {
	got := StaticEnergy(10, 2*time.Second)
	if math.Abs(float64(got)-20) > 1e-9 {
		t.Fatalf("10 W for 2 s = 20 J, got %v", got)
	}
}

func TestBreakdownAddTotal(t *testing.T) {
	a := Breakdown{CPU: 2, DRAM: 2, Link: 3, Disk: 4, Static: 5}
	if a.Total() != 16 {
		t.Fatalf("total = %v, want 16", a.Total())
	}
}

func TestMeterConcurrentAdd(t *testing.T) {
	var m Meter
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				m.Add(Counters{Instructions: 1})
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := m.Snapshot().Instructions; got != 8000 {
		t.Fatalf("concurrent adds lost updates: got %d want 8000", got)
	}
}

func TestEDP(t *testing.T) {
	if EDP(2, time.Second) != 2 {
		t.Fatalf("EDP(2 J, 1 s) = %v, want 2", EDP(2, time.Second))
	}
}

func TestJoulesString(t *testing.T) {
	cases := []struct {
		in   Joules
		want string
	}{
		{1.5, "1.500 J"},
		{0.0015, "1.500 mJ"},
		{0.0000015, "1.500 uJ"},
		{0.0000000015, "1.500 nJ"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}
