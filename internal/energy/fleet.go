package energy

import "sync"

// FleetMeter is the multi-query extension of Meter: it keeps two books
// over the same workload.  The ATTRIBUTED book sums every query's
// standalone work — what each query would have cost run by itself, the
// per-query bill.  The PHYSICAL book sums the work the machine actually
// performed — shared-scan groups charge their streaming once, however
// many queries rode along.  The gap between the books is exactly the
// energy the cross-query scheduler saved by batching; per-query
// attribution stays invariant across core budgets and batching settings
// because it never depends on which group a query landed in.
//
// The zero value is ready to use.  All methods are safe for concurrent
// use.
type FleetMeter struct {
	mu         sync.Mutex
	attributed Counters
	physical   Counters
}

// AddQuery books one query: c is attributed to the query, and also
// performed physically.  Use for a query that ran alone or led a group.
func (f *FleetMeter) AddQuery(c Counters) {
	f.mu.Lock()
	f.attributed.Add(c)
	f.physical.Add(c)
	f.mu.Unlock()
}

// AddSharedQuery books a query that rode a shared execution: the work is
// attributed to it, but the machine performed nothing extra.
func (f *FleetMeter) AddSharedQuery(c Counters) {
	f.mu.Lock()
	f.attributed.Add(c)
	f.mu.Unlock()
}

// Attributed returns the per-query bill summed over all queries.
func (f *FleetMeter) Attributed() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attributed
}

// Physical returns the work the machine actually performed.
func (f *FleetMeter) Physical() Counters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.physical
}

// SavedDynamic prices the gap between the books: the dynamic energy the
// fleet avoided by sharing, at P-state p.
func (f *FleetMeter) SavedDynamic(m *Model, p PState) Joules {
	f.mu.Lock()
	att, phy := f.attributed, f.physical
	f.mu.Unlock()
	return m.DynamicEnergy(att, p).Total() - m.DynamicEnergy(phy, p).Total()
}
