// Package locks is experiment E4's synchronization study, after §III
// ("enhanced synchronization methods").  The paper's running example — a
// parallel aggregation split over hundreds of threads, where every stream
// carries entries for every customer group — is reproduced directly: a
// shared array of group accumulators updated by N goroutines under five
// synchronization schemes:
//
//   - GlobalLock:   one mutex over all groups (the lock/latch baseline
//     whose "significant serial part dramatically reduces speedup" [6]).
//   - ShardedLock:  one mutex per group shard.
//   - AtomicAdd:    lock-free per-group atomic adds.
//   - HTMSim:       software-simulated hardware transactional memory in
//     the spirit of Intel TSX [7]: optimistic versioned read-modify-write
//     with abort/retry.
//   - Partitioned:  each worker owns a private accumulator array, merged
//     at the end — the no-sharing design the paper advocates.
//
// Experiment E4 sweeps worker counts and reports the speedup curves.
package locks

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// Scheme selects a synchronization strategy for the parallel aggregation.
type Scheme int

// The synchronization schemes compared in experiment E4.
const (
	GlobalLock Scheme = iota
	ShardedLock
	AtomicAdd
	HTMSim
	Partitioned
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case GlobalLock:
		return "global-lock"
	case ShardedLock:
		return "sharded-lock"
	case AtomicAdd:
		return "atomic"
	case HTMSim:
		return "htm-sim"
	case Partitioned:
		return "partitioned"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// AggResult reports one parallel aggregation run.
type AggResult struct {
	Groups  []int64
	Aborts  uint64 // HTMSim retries
	Workers int
}

// Total sums all groups.
func (r AggResult) Total() int64 {
	var t int64
	for _, g := range r.Groups {
		t += g
	}
	return t
}

// numShards for the sharded-lock scheme.
const numShards = 64

// RunAggregation adds `ops` operations of value 1 into `groups`
// accumulators using `workers` goroutines under the given scheme.  Group
// choice per operation is Zipf-skewed (hot customer groups, as in the
// paper's example).  The returned group totals always sum to ops — every
// scheme must be exactly correct, only their scalability differs.
func RunAggregation(scheme Scheme, workers, ops, groups int, skew float64, seed uint64) AggResult {
	if workers < 1 || groups < 1 {
		panic("locks: workers and groups must be positive")
	}
	perWorker := ops / workers
	res := AggResult{Workers: workers}
	var aborts atomic.Uint64

	switch scheme {
	case GlobalLock:
		acc := make([]int64, groups)
		var mu sync.Mutex
		runWorkers(workers, seed, skew, groups, perWorker, func(_ int, g int) {
			mu.Lock()
			acc[g]++
			mu.Unlock()
		})
		res.Groups = acc

	case ShardedLock:
		acc := make([]int64, groups)
		var mus [numShards]sync.Mutex
		runWorkers(workers, seed, skew, groups, perWorker, func(_ int, g int) {
			mu := &mus[g%numShards]
			mu.Lock()
			acc[g]++
			mu.Unlock()
		})
		res.Groups = acc

	case AtomicAdd:
		acc := make([]int64, groups)
		runWorkers(workers, seed, skew, groups, perWorker, func(_ int, g int) {
			atomic.AddInt64(&acc[g], 1)
		})
		res.Groups = acc

	case HTMSim:
		acc := make([]int64, groups)
		runWorkers(workers, seed, skew, groups, perWorker, func(_ int, g int) {
			for {
				// Transactional region: read the version (value), compute,
				// and commit with CAS.  A concurrent writer aborts the
				// transaction, which retries — TSX-style optimism.
				old := atomic.LoadInt64(&acc[g])
				if atomic.CompareAndSwapInt64(&acc[g], old, old+1) {
					return
				}
				aborts.Add(1)
			}
		})
		res.Groups = acc

	case Partitioned:
		parts := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			parts[w] = make([]int64, groups)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := workload.NewRNG(seed + uint64(w)*1000003)
				z := workload.NewZipf(rng, skew, groups)
				local := parts[w]
				for i := 0; i < perWorker; i++ {
					local[z.Next()]++
				}
			}(w)
		}
		wg.Wait()
		acc := make([]int64, groups)
		for _, p := range parts {
			for g, v := range p {
				acc[g] += v
			}
		}
		res.Groups = acc
	}
	res.Aborts = aborts.Load()
	return res
}

// runWorkers spawns the workers, each applying `apply` perWorker times to
// Zipf-chosen groups.
func runWorkers(workers int, seed uint64, skew float64, groups, perWorker int, apply func(worker, group int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(seed + uint64(w)*1000003)
			z := workload.NewZipf(rng, skew, groups)
			for i := 0; i < perWorker; i++ {
				apply(w, z.Next())
			}
		}(w)
	}
	wg.Wait()
}
