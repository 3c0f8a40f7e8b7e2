package energy

import (
	"sync"
	"testing"
)

// TestFleetMeterBooks pins the two-book contract: attributed counts
// every query, physical counts shared work once, and the saved dynamic
// energy is the priced gap.
func TestFleetMeterBooks(t *testing.T) {
	var f FleetMeter
	w := Counters{Instructions: 1000, BytesReadDRAM: 4096, TuplesOut: 10}
	f.AddQuery(w)       // leader
	f.AddSharedQuery(w) // two riders
	f.AddSharedQuery(w)

	att, phy := f.Attributed(), f.Physical()
	if att != w.Scale(3) {
		t.Fatalf("attributed = %+v, want 3x work", att)
	}
	if phy != w {
		t.Fatalf("physical = %+v, want 1x work", phy)
	}
	m := DefaultModel()
	p := m.Core.MaxPState()
	want := m.DynamicEnergy(w.Scale(2), p).Total()
	if got := f.SavedDynamic(m, p); got != want {
		t.Fatalf("saved = %v, want %v", got, want)
	}
}

// TestFleetMeterConcurrent exercises the mutex under -race.
func TestFleetMeterConcurrent(t *testing.T) {
	var f FleetMeter
	w := Counters{Instructions: 7}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if i%2 == 0 {
					f.AddQuery(w)
				} else {
					f.AddSharedQuery(w)
				}
			}
		}(i)
	}
	wg.Wait()
	if att := f.Attributed(); att.Instructions != 8*100*7 {
		t.Fatalf("attributed instructions = %d", att.Instructions)
	}
	if phy := f.Physical(); phy.Instructions != 4*100*7 {
		t.Fatalf("physical instructions = %d", phy.Instructions)
	}
}
