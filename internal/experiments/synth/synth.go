// Package synth generates the synthetic inputs the experiments and the
// tests share: value vectors shaped for one encoding each (uniform,
// sorted, run-heavy), Poisson arrival gaps, the Zipf point-query storm
// behind E21, E22 and the serving replay tests, and a diurnal load trace
// for E11.  The serving
// path generates its data through internal/workload; nothing here is
// served.
package synth

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// UniformInts returns n uniform values in [0, max), the neutral input for
// kernel microbenchmarks.
func UniformInts(seed uint64, n int, max int64) []int64 {
	rng := workload.NewRNG(seed)
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Uint64() % uint64(max))
	}
	return v
}

// SortedInts returns n mildly jittered ascending values (timestamps), the
// best case for delta/frame-of-reference compression.
func SortedInts(seed uint64, n int, step int64) []int64 {
	rng := workload.NewRNG(seed)
	v := make([]int64, n)
	cur := int64(0)
	for i := range v {
		cur += int64(rng.Intn(int(step))) + 1
		v[i] = cur
	}
	return v
}

// RunsInts returns n values forming runs of average length runLen over
// card distinct values, the best case for RLE.
func RunsInts(seed uint64, n int, card int, runLen int) []int64 {
	rng := workload.NewRNG(seed)
	v := make([]int64, n)
	cur := int64(rng.Intn(card))
	left := 1 + rng.Intn(2*runLen)
	for i := range v {
		if left == 0 {
			cur = int64(rng.Intn(card))
			left = 1 + rng.Intn(2*runLen)
		}
		v[i] = cur
		left--
	}
	return v
}

// Poisson returns n inter-arrival gaps with the given mean rate
// (queries/second).
func Poisson(seed uint64, n int, rate float64) []time.Duration {
	rng := workload.NewRNG(seed)
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return gaps
}

// PointStorm scripts nq point aggregations over Zipf-hot customer keys
// of an orders table, arriving as an open-loop Poisson process at the
// offered QPS.  The RNG discipline matches the original E21 storm
// generator call for call — one xorshift64* stream for the Zipf keys
// (seed) and one for the inter-arrival gaps (seed+6) — so scripts
// regenerate identically everywhere.
func PointStorm(seed uint64, nq int, qps, zipfS float64, nCust int) *workload.Script {
	rng := workload.NewRNG(seed)
	z := workload.NewZipf(rng, zipfS, nCust)
	gaps := Poisson(seed+6, nq, qps)
	s := &workload.Script{Arrivals: make([]workload.Arrival, 0, nq)}
	var at time.Duration
	for i := 0; i < nq; i++ {
		at += gaps[i]
		s.Arrivals = append(s.Arrivals, workload.Arrival{
			At:  at,
			SQL: fmt.Sprintf("SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = %d", z.Next()),
		})
	}
	return s
}

// AssignClients distributes the arrivals round-robin over the given
// client identities (per-client budget experiments); an empty list is a
// no-op.  Returns the script for chaining.
func AssignClients(s *workload.Script, clients ...string) *workload.Script {
	if len(clients) == 0 {
		return s
	}
	for i := range s.Arrivals {
		s.Arrivals[i].Client = clients[i%len(clients)]
	}
	return s
}

// DiurnalPhase is one step of a diurnal load trace.
type DiurnalPhase struct {
	Rate     float64       // queries per second during this phase
	Duration time.Duration // how long the phase lasts
}

// Diurnal returns a simple day-shaped trace: night trough, morning ramp,
// midday peak, evening ramp-down.  peak is the midday rate in q/s; the
// trough is peak/8.  Each phase lasts phaseDur.
func Diurnal(peak float64, phaseDur time.Duration) []DiurnalPhase {
	f := []float64{0.125, 0.25, 0.5, 0.875, 1.0, 1.0, 0.75, 0.375}
	phases := make([]DiurnalPhase, len(f))
	for i, x := range f {
		phases[i] = DiurnalPhase{Rate: peak * x, Duration: phaseDur}
	}
	return phases
}
