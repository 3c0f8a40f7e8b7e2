package energy

import "sync"

// Meter is a thread-safe accumulator of work counters, used as the single
// collection point for a query, a worker, or the whole engine.  The zero
// value is ready to use.
//
// Thread-safety guarantees: Add and Snapshot may be called from any
// number of goroutines concurrently; every Add is atomic with respect to
// Snapshot (a snapshot never observes half of an Add).
//
// Meters are the one concurrency-safe meeting point of the execution
// engine: the workers of a morsel-parallel operator accumulate plain
// Counters values locally (Counters itself is not synchronized) and merge
// them into the query's Meter once per morsel batch — coarse-grained
// merging keeps the mutex out of the per-row hot path.
type Meter struct {
	mu sync.Mutex
	c  Counters
}

// Add accumulates counters into the meter.
func (m *Meter) Add(c Counters) {
	m.mu.Lock()
	m.c.Add(c)
	m.mu.Unlock()
}

// Snapshot returns the counters accumulated so far.
func (m *Meter) Snapshot() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}
