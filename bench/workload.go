package main

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// hotKeys is the number of distinct custkeys the point lookups draw
// from (Zipf 1.3 over custkey 0..hotKeys-1).
const hotKeys = 40

// stormRate is open_storm's offered load in ops/s.  It is a constant of
// the benchmark, never re-derived from a run: about a quarter of
// point_hot's closed-loop capacity on the 2-core reference box.  At half
// (100 ops/s) the open loop amplified the box's own drift in capacity —
// 170 to 210 ops/s from one quarter-hour to the next — into a 25-70%
// run-to-run spread of the latency percentiles; a stall still queues
// requests behind it at a quarter.
const stormRate = 50

// mixedMergeDeltaRows is mixed_rw's auto-merge threshold, low enough
// that several background merges complete inside one run.
const mixedMergeDeltaRows = 128

// op is one request: a read (index into the workload's statements) or a
// write.
type op struct {
	stmt  int
	write *writeSpec
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	// open selects the open-loop driver (arrivals at stormRate, latency
	// from the due time); otherwise numClients closed-loop clients.
	open bool
	// stmts are the distinct read statements; each is issued once,
	// untimed, before the clock starts.
	stmts          []querySpec
	mergeDeltaRows int
	// newGen returns the op stream of one closed-loop client (or, for an
	// open loop, the single arrival stream as client 0).  Streams are a
	// pure function of the seed and the client index.
	newGen func(client int) func() op
}

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"point_hot", "scan_agg", "join_dim", "mixed_rw", "open_storm"}

func pointSpec(k int64) querySpec {
	return querySpec{preds: []pred{{"custkey", "=", k}}, sumCol: "amount"}
}

func pointStmts() []querySpec {
	s := make([]querySpec, hotKeys)
	for k := range s {
		s[k] = pointSpec(int64(k))
	}
	return s
}

// dayAt returns the day value below which the given fraction of the
// (day-ascending) orders fall.
func dayAt(d *dataset, frac float64) int64 {
	days := d.orders.OrderDay
	i := int(frac*float64(len(days))) - 1
	if i < 0 {
		i = 0
	}
	return days[i]
}

// scanStmts are the 12 filter→GROUP BY templates: selectivity on day
// {1%, 10%, 50%, 100%} × group {region (5 groups), custkey (~rows/100)}
// summing the integer day (the fused path), plus {10%, 100%} × both
// groups summing the float amount (the unfused path).
func scanStmts(d *dataset) []querySpec {
	var s []querySpec
	for _, frac := range []float64{0.01, 0.10, 0.50, 1.00} {
		for _, g := range []string{"region", "custkey"} {
			s = append(s, querySpec{preds: []pred{{"day", "<=", dayAt(d, frac)}}, groupBy: g, sumCol: "day"})
		}
	}
	for _, frac := range []float64{0.10, 1.00} {
		for _, g := range []string{"region", "custkey"} {
			s = append(s, querySpec{preds: []pred{{"day", "<=", dayAt(d, frac)}}, groupBy: g, sumCol: "amount"})
		}
	}
	return s
}

// joinStmts are the unfiltered join (index 0) and one per tier value
// (index 1+t), each keeping ~1/numTiers of the dimension.
func joinStmts() []querySpec {
	s := []querySpec{{join: true, groupBy: "segment", sumCol: "day"}}
	for t := int64(0); t < numTiers; t++ {
		s = append(s, querySpec{join: true, preds: []pred{{"tier", "=", t}}, groupBy: "segment", sumCol: "day"})
	}
	return s
}

// clientRNG derives an independent stream per (seed, workload, client).
func clientRNG(seed uint64, salt string, client int) *workload.RNG {
	h := seed*0x9E3779B97F4A7C15 + uint64(client+1)*0xD1B54A32D192ED03
	for _, c := range salt {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return workload.NewRNG(h)
}

// mixer draws category indexes with given weights by stratified
// sampling: it deals shuffled blocks in which every category appears its
// expected number of times, give or take one.  A run of a few thousand
// operations then has the same mix whatever the seed — only the order
// changes — so run-to-run differences in a metric are the system's, not
// the sampler's.  (Independent Zipf draws move the share of the heaviest
// key by ±2% between seeds, and the mean cost per op with it.)
type mixer struct {
	rng   *workload.RNG
	cdf   []float64
	block []int
	pos   int
}

func newMixer(rng *workload.RNG, weights []float64, blockSize int) *mixer {
	var total float64
	for _, w := range weights {
		total += w
	}
	m := &mixer{rng: rng, cdf: make([]float64, len(weights)), block: make([]int, blockSize), pos: blockSize}
	var acc float64
	for i, w := range weights {
		acc += w / total
		m.cdf[i] = acc
	}
	m.cdf[len(weights)-1] = 1
	return m
}

func (m *mixer) next() int {
	if m.pos == len(m.block) {
		n, c := len(m.block), 0
		for i := range m.block {
			u := (float64(i) + m.rng.Float64()) / float64(n) // one draw per stratum
			for m.cdf[c] <= u {
				c++
			}
			m.block[i] = c
		}
		m.rng.Shuffle(n, func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		m.pos = 0
	}
	m.pos++
	return m.block[m.pos-1]
}

// zipfWeights are the Zipf(1.3) weights of the hot keys, hottest first.
func zipfWeights() []float64 {
	w := make([]float64, hotKeys)
	for k := range w {
		w[k] = math.Pow(float64(k+1), -1.3)
	}
	return w
}

// mixBlock is the mixers' block size: large enough to hold the tail of
// the Zipf distribution, small next to a run.
const mixBlock = 200

// newWorkload builds the named workload over the dataset.
func newWorkload(name string, seed uint64, d *dataset) (*workloadDef, error) {
	switch name {
	case "point_hot":
		return &workloadDef{name: name, stmts: pointStmts(), newGen: func(c int) func() op {
			keys := newMixer(clientRNG(seed, name, c), zipfWeights(), mixBlock)
			return func() op { return op{stmt: keys.next()} }
		}}, nil

	case "scan_agg":
		stmts := scanStmts(d)
		return &workloadDef{name: name, stmts: stmts, newGen: func(c int) func() op {
			// Clients cycle the templates from staggered offsets, so two
			// clients rarely hold the same statement at once and the
			// shared-scan batcher does not merge them.
			i := c * len(stmts) / numClients()
			return func() op { i++; return op{stmt: (i - 1) % len(stmts)} }
		}}, nil

	case "join_dim":
		return &workloadDef{name: name, stmts: joinStmts(), newGen: func(c int) func() op {
			uniform := make([]float64, numTiers)
			for t := range uniform {
				uniform[t] = 1
			}
			tiers := newMixer(clientRNG(seed, name, c), uniform, numTiers)
			i := c // clients start on opposite halves of the alternation
			return func() op {
				i++
				if i%2 == 0 {
					return op{stmt: 0}
				}
				return op{stmt: 1 + tiers.next()}
			}
		}}, nil

	case "mixed_rw":
		return &workloadDef{name: name, stmts: pointStmts(), mergeDeltaRows: mixedMergeDeltaRows,
			newGen: func(c int) func() op { return mixedGen(seed, name, c, d) }}, nil

	case "open_storm":
		scan := querySpec{preds: []pred{{"day", "<=", dayAt(d, 0.01)}}, groupBy: "region", sumCol: "day"}
		return &workloadDef{name: name, open: true, stmts: append(pointStmts(), scan), newGen: func(c int) func() op {
			// 90% point reads, Zipf over the hot keys; 10% the scan.
			weights := zipfWeights()
			var points float64
			for _, w := range weights {
				points += w
			}
			stmts := newMixer(clientRNG(seed, name, c), append(weights, points/9), mixBlock)
			return func() op { return op{stmt: stmts.next()} }
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mixedGen is one mixed_rw client: 70% point reads, 20% INSERT, 5%
// UPDATE, 5% DELETE.  Client c touches only the hot keys k with
// k % numClients == c — its reads, the custkey of its inserts, and the
// rows its updates and deletes name — so every operation on a key is
// issued in sequence by one closed-loop client and each read has exactly
// one right answer, whatever the other clients are doing.
func mixedGen(seed uint64, salt string, c int, d *dataset) func() op {
	n := numClients()
	rng := clientRNG(seed, salt, c)
	var own []int64
	var ownWeights []float64
	for k, w := range zipfWeights() {
		if k%n == c {
			own = append(own, int64(k))
			ownWeights = append(ownWeights, w)
		}
	}
	keys := newMixer(rng, ownWeights, mixBlock)
	kinds := newMixer(rng, []float64{70, 20, 5, 5}, 100)
	// victims are the ids this client may update or delete: the loaded
	// rows of its keys, plus what it inserts, minus what it deletes.
	var victims []int64
	for r, k := range d.orders.CustKey {
		if k < hotKeys && int(k)%n == c {
			victims = append(victims, d.orders.OrderID[r])
		}
	}
	rows := len(d.orders.OrderID)
	lastDay := d.orders.OrderDay[rows-1]
	inserted := 0
	cents := func() float64 { return float64(100+rng.Intn(999900)) / 100 }
	return func() op {
		switch kinds.next() {
		case 0:
			return op{stmt: int(own[keys.next()])}
		case 1:
			w := &writeSpec{
				kind:    writeInsert,
				id:      int64(rows + 1 + inserted*n + c),
				custkey: own[keys.next()],
				region:  int64(rng.Intn(len(workload.RegionNames))),
				amount:  cents(),
				day:     lastDay,
			}
			inserted++
			victims = append(victims, w.id)
			return op{stmt: -1, write: w}
		case 2:
			return op{stmt: -1, write: &writeSpec{kind: writeUpdate, id: victims[rng.Intn(len(victims))], amount: cents()}}
		default:
			j := rng.Intn(len(victims))
			id := victims[j]
			victims[j] = victims[len(victims)-1]
			victims = victims[:len(victims)-1]
			return op{stmt: -1, write: &writeSpec{kind: writeDelete, id: id}}
		}
	}
}
