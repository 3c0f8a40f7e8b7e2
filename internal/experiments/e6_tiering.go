package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/hier"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Title: "multi-level storage: high-density vs low-density placement",
		Claim: "\"high-density data ... will stay and [be] manipulated in main-memory. Low-density data ... will be placed on traditional cheap disk devices ... point access is typical for high-density data, low-density data is usually queried by massive and parallel scans\" (§IV.B)",
		Run:   runE6,
	})
}

// E6Row is one (placement, operation) measurement.
type E6Row struct {
	Placement string
	Op        string
	Time      time.Duration
	J         energy.Joules
	IdleW     energy.Watts
}

// E6Placements compares all-DRAM, aged (hot orders in DRAM, cold clicks
// on disk), and all-HDD placements for the two canonical access patterns.
func E6Placements() []E6Row {
	model := energy.DefaultModel()
	const (
		ordersBytes = 64 << 20  // high-density order segments
		clicksBytes = 512 << 20 // low-density clickstream segments
		pointRead   = 256       // bytes touched by a point lookup
		nPoints     = 10_000
	)
	place := func(orders, clicks hier.Tier) *hier.Manager {
		m := hier.NewManager(nil)
		m.Place("orders", ordersBytes, orders)
		m.Place("clicks", clicksBytes, clicks)
		return m
	}
	placements := []struct {
		name string
		m    *hier.Manager
	}{
		{"all-DRAM", place(hier.DRAM, hier.DRAM)},
		{"aged", place(hier.DRAM, hier.HDD)},
		{"all-HDD", place(hier.HDD, hier.HDD)},
	}
	var out []E6Row
	for _, p := range placements {
		// Point workload against the hot fragment.
		var pointT time.Duration
		var pointW energy.Counters
		for i := 0; i < nPoints; i++ {
			d, c, err := p.m.Access("orders", pointRead)
			if err != nil {
				panic(err)
			}
			pointT += d
			pointW.Add(c)
		}
		// One full scan of the cold fragment.
		scanT, scanW, err := p.m.Access("clicks", clicksBytes)
		if err != nil {
			panic(err)
		}
		idle := p.m.IdlePower(model)
		j := func(w energy.Counters) energy.Joules {
			return model.DynamicEnergy(w, model.Core.MaxPState()).Total()
		}
		out = append(out,
			E6Row{p.name, fmt.Sprintf("%d point lookups", nPoints), pointT, j(pointW), idle},
			E6Row{p.name, "full cold scan", scanT, j(scanW), idle},
		)
	}
	return out
}

// E6Aging demonstrates the aging policy migrating an idle fragment down
// and promoting it on re-access.
func E6Aging() []hier.Migration {
	m := hier.NewManager(nil)
	m.Place("hot", 64<<20, hier.DRAM)
	m.Place("cold", 512<<20, hier.DRAM)
	for i := 0; i < 20; i++ {
		m.Tick()
		if _, _, err := m.Access("hot", 256); err != nil {
			panic(err)
		}
	}
	return m.Age(hier.DefaultAging())
}

func runE6(w io.Writer) error {
	rows := E6Placements()
	tw := newTable(w)
	fmt.Fprintln(tw, "placement\toperation\ttime\tdynamic-J\tidle-power")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%v\n",
			r.Placement, r.Op, r.Time.Round(10*time.Microsecond), r.J, r.IdleW)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\naging-policy migrations after 20 idle ticks on the cold fragment:")
	for _, mv := range E6Aging() {
		fmt.Fprintf(w, "  %s: %v -> %v (%v, %d MB moved)\n",
			mv.ID, mv.From, mv.To, mv.Elapsed.Round(time.Millisecond),
			(mv.Work.BytesReadDRAM+mv.Work.BytesReadSSD+mv.Work.BytesReadHDD)>>20)
	}
	fmt.Fprintln(w, "\nshape: point access is catastrophic on HDD; scans tolerate it; the aged")
	fmt.Fprintln(w, "placement keeps point latency near DRAM while shedding DRAM capacity (idle W).")
	return nil
}
