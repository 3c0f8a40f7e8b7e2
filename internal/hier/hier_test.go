package hier_test

// Package hier lives in internal/experiments/hier, beside E6, the
// experiment that owns it; its tests keep this import path.

import (
	"testing"

	"repro/internal/energy"
	. "repro/internal/experiments/hier"
)

func TestSpecsOrdering(t *testing.T) {
	s := DefaultSpecs()
	if !(s[DRAM].Latency < s[SSD].Latency && s[SSD].Latency < s[HDD].Latency) {
		t.Error("latency must grow down the hierarchy")
	}
	if !(s[DRAM].Bandwidth > s[SSD].Bandwidth && s[SSD].Bandwidth > s[HDD].Bandwidth) {
		t.Error("bandwidth must shrink down the hierarchy")
	}
	if !(s[DRAM].PerByte < s[SSD].PerByte && s[SSD].PerByte < s[HDD].PerByte) {
		t.Error("energy per byte must grow down the hierarchy")
	}
}

func TestPlaceAccess(t *testing.T) {
	m := NewManager(nil)
	m.Place("seg1", 1<<20, DRAM)
	m.Place("seg2", 1<<20, HDD)
	dD, cD, err := m.Access("seg1", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	dH, cH, err := m.Access("seg2", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if dH <= dD {
		t.Errorf("HDD access must be slower: %v vs %v", dH, dD)
	}
	if cD.BytesReadDRAM != 1<<20 || cH.BytesReadHDD != 1<<20 {
		t.Error("counters must charge the right tier")
	}
	if _, _, err := m.Access("nope", 1); err == nil {
		t.Error("unknown fragment must error")
	}
	f, err := m.Fragment("seg1")
	if err != nil || f.Accesses != 1 {
		t.Error("access bookkeeping broken")
	}
}

func TestEnergyOrderingAcrossTiers(t *testing.T) {
	// Reading the same bytes must cost strictly more energy further down
	// the hierarchy — the physical basis of E6.
	m := NewManager(nil)
	model := energy.DefaultModel()
	m.Place("a", 1<<24, DRAM)
	m.Place("b", 1<<24, SSD)
	m.Place("c", 1<<24, HDD)
	j := func(id string) energy.Joules {
		_, c, err := m.Access(id, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		return model.DynamicEnergy(c, model.Core.MaxPState()).Total()
	}
	jd, js, jh := j("a"), j("b"), j("c")
	if !(jd < js && js < jh) {
		t.Errorf("energy must grow down the hierarchy: %v %v %v", jd, js, jh)
	}
}

func TestAgingMigratesColdData(t *testing.T) {
	m := NewManager(nil)
	m.Place("hot", 1<<20, DRAM)
	m.Place("cold", 1<<20, DRAM)
	p := DefaultAging()
	// Touch "hot" every tick; never touch "cold".
	for i := 0; i < 20; i++ {
		m.Tick()
		if _, _, err := m.Access("hot", 100); err != nil {
			t.Fatal(err)
		}
	}
	moves := m.Age(p)
	if len(moves) != 1 || moves[0].ID != "cold" {
		t.Fatalf("expected only cold to move, got %+v", moves)
	}
	if moves[0].To != HDD {
		t.Errorf("20 ticks idle should sink to HDD, got %v", moves[0].To)
	}
	f, _ := m.Fragment("hot")
	if f.Tier != DRAM {
		t.Error("hot fragment must stay in DRAM")
	}
	// Re-touching cold data promotes it back.
	m.Tick()
	if _, _, err := m.Access("cold", 100); err != nil {
		t.Fatal(err)
	}
	moves = m.Age(p)
	found := false
	for _, mv := range moves {
		if mv.ID == "cold" && mv.To == DRAM {
			found = true
		}
	}
	if !found {
		t.Errorf("touched cold fragment should be promoted, got %+v", moves)
	}
}

func TestMoveCostCharged(t *testing.T) {
	m := NewManager(nil)
	m.Place("x", 1<<20, DRAM)
	f, _ := m.Fragment("x")
	d, c := m.MoveCost(f, HDD)
	if d <= 0 {
		t.Error("migration must take time")
	}
	if c.BytesReadDRAM != 1<<20 || c.BytesWrittenHDD != 1<<20 {
		t.Errorf("migration counters wrong: %+v", c)
	}
}

func TestIdlePowerDropsWhenTierEmpty(t *testing.T) {
	model := energy.DefaultModel()
	m := NewManager(nil)
	m.Place("a", 1<<30, DRAM)
	m.Place("b", 1<<20, HDD)
	withHDD := m.IdlePower(model)
	// Move the HDD fragment up; the HDD can now power down.
	f, _ := m.Fragment("b")
	f.Tier = DRAM
	withoutHDD := m.IdlePower(model)
	if withoutHDD >= withHDD {
		t.Errorf("emptying the HDD must cut idle power: %v -> %v", withHDD, withoutHDD)
	}
}

func TestTierString(t *testing.T) {
	if DRAM.String() != "DRAM" || SSD.String() != "SSD" || HDD.String() != "HDD" {
		t.Fatal("tier names wrong")
	}
}

func TestAgeTargetWindows(t *testing.T) {
	p := AgingPolicy{HotWindow: 2, WarmWindow: 5}
	f := &Fragment{LastUsed: 10}
	if p.Target(f, 11) != DRAM || p.Target(f, 14) != SSD || p.Target(f, 100) != HDD {
		t.Fatal("aging windows broken")
	}
}
