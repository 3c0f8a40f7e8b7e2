package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/vec"
)

// Morsel-driven parallel execution (Leis et al., SIGMOD 2014, adapted to
// the operator-at-a-time model): the row space is cut into a fixed grid
// of morsels, a pool of Ctx.DOP() workers claims morsels with an atomic
// counter, and every worker keeps its results and energy counters local
// until a morsel batch completes.  The grid is a function of the input
// size alone — never of the worker count — so results and charged
// counters are byte-identical at every degree of parallelism, which is
// what lets the E18 experiment sweep DOP and attribute every delta to
// scheduling rather than to accounting noise.

// MorselRows is the morsel grid pitch.  One segment per morsel keeps the
// zone-map and packed-kernel boundaries of the column store aligned with
// the parallel work units.
const MorselRows = colstore.SegSize

// runPool fans tasks [0, n) out to min(Ctx.DOP(), n) workers claiming
// task indices from an atomic counter.  work runs once per task and
// returns the task's result plus the counters it cost; results arrive
// in results[i] so callers consume them in deterministic task order.
// Worker counters merge into ctx.Meter once per task — never per row —
// and the summed total is returned for the coordinator's trace entry.
// It is the shared engine under runMorsels (tasks = row windows) and
// the partitioned join's build phase (tasks = radix partitions).
//
// The pool honors the context's core lease at task granularity: before
// each claim a worker re-reads Ctx.DOP(), so a shrunken grant retires
// the excess workers at the next morsel boundary (a grant that grows
// mid-operator adds no workers until the next operator starts), and a
// canceled lease stops all claiming.  After a cancellation the results
// are incomplete — every caller must check Ctx.Canceled() before using
// them and return ErrCanceled in its place.
func runPool[T any](ctx *Ctx, n int, work func(task int) (T, energy.Counters)) ([]T, energy.Counters) {
	if n == 0 {
		return nil, energy.Counters{}
	}
	dop := ctx.DOP()
	if dop > n {
		dop = n
	}
	if dop < 1 {
		dop = 1
	}
	results := make([]T, n)
	workerTotals := make([]energy.Counters, dop)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < dop; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for {
				if ctx.Canceled() || (wkr > 0 && wkr >= ctx.DOP()) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res, w := work(i)
				results[i] = res
				ctx.Meter.Add(w) // one merge per task
				workerTotals[wkr].Add(w)
			}
		}(wkr)
	}
	wg.Wait()
	var total energy.Counters
	for i := range workerTotals {
		total.Add(workerTotals[i])
	}
	return results, total
}

// runMorsels fans rows [0, n) out to the worker pool morsel-wise.  work
// runs once per morsel (m is the morsel index, [lo, hi) its rows); see
// runPool for the result-ordering and counter-merging contract.
func runMorsels[T any](ctx *Ctx, n int, work func(m, lo, hi int) (T, energy.Counters)) ([]T, energy.Counters) {
	nm := (n + MorselRows - 1) / MorselRows
	return runPool(ctx, nm, func(m int) (T, energy.Counters) {
		lo := m * MorselRows
		hi := lo + MorselRows
		if hi > n {
			hi = n
		}
		return work(m, lo, hi)
	})
}

// morselScratch is one worker's buffers for the morsel it is folding or
// probing, recycled across the morsels it claims (and across queries)
// through scratchPool, so neither the scan feeder nor the probe
// allocates anything per morsel that grows with its rows.  Every window
// is indexed by window-local row.
//
//lint:hotpath
type morselScratch struct {
	sel, pred vec.Bitvec // the window's selection; a later predicate's matches
	rows      []int32    // the selected rows, ascending (a relation morsel's: all)
	keys      []int64    // the probe keys
	wins      [][]int64  // column windows (win)
	// A fold's resolved rows: gids[j] is the group of the j-th folded row,
	// ins[ai] aggregate ai's input (groupTable.fold).  A probe fold's j-th
	// row is match j, probe row probeAt[j] and build row buildAt[j]; it
	// holds at most MorselRows matches (probeFold.match).
	gids, probeAt, buildAt []int32
	ins                    []foldIn
	slots                  []int32 // a dense key's slot memo: id → group index + 1, 0 unseen
	spans                  []colstore.SegSpan
	// A probe window's dictionary span memo (code → hit + 2, 0 unseen),
	// each selected row's hit index (-1: no match) and the hits
	// (joinRun.lookup).
	memo []int32
	hits []int32
	res  []probeHit
}

var scratchPool = sync.Pool{New: func() any { return new(morselScratch) }}

// window returns *buf resized to n rows (n never exceeds MorselRows).
func window(buf *[]int64, n int) []int64 {
	*buf = room(*buf, MorselRows)[:MorselRows]
	return (*buf)[:n]
}

// win returns column window k resized to n rows.
func (sc *morselScratch) win(k, n int) []int64 {
	for len(sc.wins) <= k {
		sc.wins = append(sc.wins, nil)
	}
	return window(&sc.wins[k], n)
}

// sized returns xs as n zeroed entries, on its own storage when that is
// large enough.
func sized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// room returns xs emptied, with capacity for at least n elements.
func room[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, 0, n)
	}
	return xs[:0]
}
