package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"strconv"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
)

// mapAgg is the retired string-keyed aggregation, kept as the oracle the
// one aggregate is anchored on: the parent's map implementation moved
// here (a key string per row, a heap object per group, its own merge and
// output builder, the serial loop below mapAggParallelRows and the morsel
// grid from it).  It materializes its child and charges what the parent
// charged, so a relation-fed HashAgg under 2^16 or from 2^18 input rows
// must reproduce both its relation and its Meter.  Its DOUBLE aggregates
// are written from the definition, sharing no code with num.FloatSum: a sum
// is the inputs' exact math/big sum rounded once (exactSum), MIN/MAX
// follow floatLess.
type mapAgg struct {
	Child   Node
	GroupBy []string
	Aggs    []expr.AggSpec
}

// mapAggParallelRows is the retired ParallelAggRows: the input size at
// which the map aggregation switched from its serial loop to the grid.
const mapAggParallelRows = 1 << 18

func (a *mapAgg) Label() string { return (&HashAgg{GroupBy: a.GroupBy, Aggs: a.Aggs}).Label() }
func (a *mapAgg) Kids() []Node  { return []Node{a.Child} }
func (a *mapAgg) rangeWork(lo, hi, groups int) energy.Counters {
	return (&HashAgg{GroupBy: a.GroupBy, Aggs: a.Aggs}).rangeWork(lo, hi, groups)
}

// aggState accumulates one group.  Int64 aggregate inputs accumulate in
// the exact int64 fields: integer addition is associative, so any morsel
// decomposition — including the fused run-at-a-time closed form
// `sum += L*v` — produces bit-identical sums.  Float64 inputs keep every
// value, summed exactly at output.
type aggState struct {
	count  int64
	fvals  [][]float64
	isums  []int64
	mins   []float64
	maxs   []float64
	imins  []int64
	imaxs  []int64
	seen   []bool
	sample int32 // first row of the group, for group-key output
}

// aggTable is one (partial) aggregation result: states keyed by the
// group-key bytes, plus the keys in first-seen order.
type aggTable struct {
	groups map[string]*aggState
	order  []string
}

func newAggTable() *aggTable {
	return &aggTable{groups: make(map[string]*aggState), order: make([]string, 0, 16)}
}

// newAggState allocates one group's accumulators.
func (a *mapAgg) newAggState(sample int32) *aggState {
	return &aggState{
		fvals:  make([][]float64, len(a.Aggs)),
		isums:  make([]int64, len(a.Aggs)),
		mins:   make([]float64, len(a.Aggs)),
		maxs:   make([]float64, len(a.Aggs)),
		imins:  make([]int64, len(a.Aggs)),
		imaxs:  make([]int64, len(a.Aggs)),
		seen:   make([]bool, len(a.Aggs)),
		sample: sample,
	}
}

// aggRange aggregates rows [lo, hi) of the input into t.  Group-key
// bytes length-prefix every part (uvarint length, then the rendered
// value): a bare separator byte would let multi-column keys containing
// that byte collide — ("a\x00","b") and ("a","\x00b") are different
// groups.  The fused code-domain path is immune by construction (its
// keys are single int64 codes, never concatenated bytes).
func (a *mapAgg) aggRange(t *aggTable, groupCols, aggCols []*Col, lo, hi int) {
	var keyBuf, partBuf []byte
	for row := lo; row < hi; row++ {
		keyBuf = keyBuf[:0]
		for _, c := range groupCols {
			partBuf = partBuf[:0]
			switch c.Type {
			case colstore.Int64:
				partBuf = strconv.AppendInt(partBuf, c.I[row], 10)
			case colstore.Float64:
				partBuf = strconv.AppendFloat(partBuf, c.F[row], 'g', -1, 64)
			default:
				partBuf = append(partBuf, c.Str(row)...)
			}
			keyBuf = binary.AppendUvarint(keyBuf, uint64(len(partBuf)))
			keyBuf = append(keyBuf, partBuf...)
		}
		// Indexing with the conversion itself lets the compiler skip the
		// copy; the key string is built once per group, not once per row.
		st, ok := t.groups[string(keyBuf)]
		if !ok {
			key := string(keyBuf)
			st = a.newAggState(int32(row))
			t.groups[key] = st
			t.order = append(t.order, key)
		}
		st.count++
		for i := range a.Aggs {
			c := aggCols[i]
			if c == nil {
				continue
			}
			if c.Type == colstore.Int64 {
				v := c.I[row]
				st.isums[i] += v
				if !st.seen[i] || v < st.imins[i] {
					st.imins[i] = v
				}
				if !st.seen[i] || v > st.imaxs[i] {
					st.imaxs[i] = v
				}
				st.seen[i] = true
				continue
			}
			v := c.F[row]
			st.fvals[i] = append(st.fvals[i], v)
			if !st.seen[i] || floatLess(v, st.mins[i]) {
				st.mins[i] = v
			}
			if !st.seen[i] || floatLess(st.maxs[i], v) {
				st.maxs[i] = v
			}
			st.seen[i] = true
		}
	}
}

// mergeInto folds the partial table src into dst.  Partials must be
// merged in morsel order: then dst's first-seen order and per-group
// sample rows match what the serial loop over the same rows produces.
func mergeInto(dst, src *aggTable) {
	for _, key := range src.order {
		ss := src.groups[key]
		ds, ok := dst.groups[key]
		if !ok {
			dst.groups[key] = ss
			dst.order = append(dst.order, key)
			continue
		}
		ds.count += ss.count
		for i := range ds.fvals {
			ds.fvals[i] = append(ds.fvals[i], ss.fvals[i]...)
			ds.isums[i] += ss.isums[i]
			if ss.seen[i] {
				if !ds.seen[i] || floatLess(ss.mins[i], ds.mins[i]) {
					ds.mins[i] = ss.mins[i]
				}
				if !ds.seen[i] || floatLess(ds.maxs[i], ss.maxs[i]) {
					ds.maxs[i] = ss.maxs[i]
				}
				if !ds.seen[i] || ss.imins[i] < ds.imins[i] {
					ds.imins[i] = ss.imins[i]
				}
				if !ds.seen[i] || ss.imaxs[i] > ds.imaxs[i] {
					ds.imaxs[i] = ss.imaxs[i]
				}
				ds.seen[i] = true
			}
		}
	}
}

// buildOutput materializes the aggregation result from the final table.
func (a *mapAgg) buildOutput(t *aggTable, groupCols, aggCols []*Col) *Relation {
	out := &Relation{N: len(t.order)}
	// Group-key output columns.
	for gi, g := range a.GroupBy {
		src := groupCols[gi]
		oc := Col{Name: g, Type: src.Type, Dict: src.Dict}
		if src.Type == colstore.Float64 {
			oc.F = make([]float64, len(t.order))
		} else {
			oc.I = make([]int64, len(t.order))
		}
		for i, key := range t.order {
			row := t.groups[key].sample
			if src.Type == colstore.Float64 {
				oc.F[i] = src.F[row]
			} else {
				oc.I[i] = src.I[row]
			}
		}
		out.Cols = append(out.Cols, oc)
	}
	// Aggregate output columns.
	for ai, s := range a.Aggs {
		intIn := aggCols[ai] != nil && aggCols[ai].Type == colstore.Int64
		intOut := s.Func == expr.AggCount ||
			(intIn && (s.Func == expr.AggSum || s.Func == expr.AggMin || s.Func == expr.AggMax))
		oc := Col{Name: aggOutName(s)}
		if intOut {
			oc.Type = colstore.Int64
			oc.I = make([]int64, len(t.order))
		} else {
			oc.Type = colstore.Float64
			oc.F = make([]float64, len(t.order))
		}
		for i, key := range t.order {
			st := t.groups[key]
			if intOut {
				// Integer aggregates come straight from the exact int64
				// accumulators — no float round-trip.
				switch s.Func {
				case expr.AggCount:
					oc.I[i] = st.count
				case expr.AggSum:
					oc.I[i] = st.isums[ai]
				case expr.AggMin:
					oc.I[i] = st.imins[ai]
				case expr.AggMax:
					oc.I[i] = st.imaxs[ai]
				}
				continue
			}
			var v float64
			switch s.Func {
			case expr.AggSum:
				v = exactSum(st.fvals[ai])
			case expr.AggMin:
				v = st.mins[ai]
			case expr.AggMax:
				v = st.maxs[ai]
			case expr.AggAvg:
				if st.count > 0 {
					if intIn {
						v = float64(st.isums[ai]) / float64(st.count)
					} else {
						v = exactSum(st.fvals[ai]) / float64(st.count)
					}
				}
			}
			oc.F[i] = v
		}
		out.Cols = append(out.Cols, oc)
	}
	return out
}

// floatLess is the total order of DOUBLE MIN/MAX: −Inf < … < −0 < +0 <
// … < +Inf < NaN.
func floatLess(x, y float64) bool {
	switch {
	case x != x:
		return false
	case y != y:
		return true
	case x == 0 && y == 0:
		return math.Signbit(x) && !math.Signbit(y)
	}
	return x < y
}

// oracleCols resolves a's group and value columns against in, once the
// relation feeder has accepted the same aggregation: aggCols[i] is nil
// when aggregate i reads no values (COUNT).
func oracleCols(a *HashAgg, in *Relation) (groupCols, aggCols []*Col, err error) {
	if _, err := a.relFeed(in); err != nil {
		return nil, nil, err
	}
	for _, g := range a.GroupBy {
		c, _ := in.Col(g)
		groupCols = append(groupCols, c)
	}
	for _, s := range a.Aggs {
		var c *Col
		if s.Func != expr.AggCount {
			c, _ = in.Col(s.Col)
		}
		aggCols = append(aggCols, c)
	}
	return groupCols, aggCols, nil
}

// Run implements Node.
func (a *mapAgg) Run(ctx *Ctx) (*Relation, error) {
	in, err := a.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	groupCols, aggCols, err := oracleCols(&HashAgg{GroupBy: a.GroupBy, Aggs: a.Aggs}, in)
	if err != nil {
		return nil, err
	}
	if in.N >= mapAggParallelRows {
		return a.runParallel(ctx, in, groupCols, aggCols)
	}
	t := newAggTable()
	a.aggRange(t, groupCols, aggCols, 0, in.N)
	ctx.Charge(a.Label(), len(t.order), a.rangeWork(0, in.N, len(t.order)))
	return a.buildOutput(t, groupCols, aggCols), nil
}

// runParallel aggregates the input morsel-wise on a worker pool and
// merges the per-morsel partials in morsel order.
func (a *mapAgg) runParallel(ctx *Ctx, in *Relation, groupCols, aggCols []*Col) (*Relation, error) {
	partials, scanWork := runMorsels(ctx, in.N,
		func(m, lo, hi int) (*aggTable, energy.Counters) {
			t := newAggTable()
			a.aggRange(t, groupCols, aggCols, lo, hi)
			return t, a.rangeWork(lo, hi, len(t.order))
		})
	if ctx.Canceled() {
		return nil, ErrCanceled
	}

	// Merge in morsel order (deterministic at any DOP, including the
	// floating-point addition order of the partial sums).
	final := newAggTable()
	var partialGroups uint64
	for _, p := range partials {
		partialGroups += uint64(len(p.order))
		mergeInto(final, p)
	}
	ctx.Trace(a.Label()+" [parallel]", len(final.order), scanWork)
	chargeAggMerge(ctx, len(partials), partialGroups, len(final.order), energy.Counters{})
	return a.buildOutput(final, groupCols, aggCols), nil
}

// chargeAggMerge books the coordinator's merge of nparts per-morsel
// partial tables into groups result groups — the parent's formula, kept
// here so the oracle also pins the price HashAgg.Run charges.
func chargeAggMerge(ctx *Ctx, nparts int, partialGroups uint64, groups int, extra energy.Counters) {
	extra.Add(energy.Counters{
		TuplesIn:     partialGroups,
		TuplesOut:    uint64(groups),
		Instructions: partialGroups * 12,
		CacheMisses:  partialGroups / 4,
	})
	ctx.Charge(fmt.Sprintf("agg-merge(%d partials)", nparts), groups, extra)
}

// exactSum is the reference DOUBLE sum: the specials by num.FloatSum's
// rules, otherwise the exact sum of xs in math/big rounded once to
// nearest even, and a zero sum as +0.
func exactSum(xs []float64) float64 {
	var nan, pos, negInf bool
	sum := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		switch {
		case x != x:
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			negInf = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case nan || pos && negInf:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	case sum.Sign() == 0:
		return 0
	}
	f, _ := sum.Float64()
	return f
}

// sameBits reports whether two DOUBLEs are the same bits, any two NaNs
// alike.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}
