package exec

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
)

// HashAgg groups by zero or more columns and computes aggregates.  With no
// group-by columns it produces a single global row.
//
// Inputs of at least ParallelAggRows rows are aggregated morsel-wise by a
// worker pool of Ctx.DOP() goroutines: every morsel builds its own partial
// hash table, and the coordinator merges the partials in morsel order.
// Because the morsel grid and the merge order are fixed by the input size
// alone, the output bytes and the charged counters are identical at every
// degree of parallelism.
type HashAgg struct {
	Child   Node
	GroupBy []string
	Aggs    []expr.AggSpec
}

// ParallelAggRows is the input size at which HashAgg switches from the
// serial loop to morsel-wise partial aggregation.
const ParallelAggRows = 1 << 18

// Label implements Node.
func (a *HashAgg) Label() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g)
	}
	for _, s := range a.Aggs {
		parts = append(parts, s.String())
	}
	return "HashAgg(" + strings.Join(parts, ", ") + ")"
}

// Kids implements Node.
func (a *HashAgg) Kids() []Node { return []Node{a.Child} }

// aggState accumulates one group.  Int64 aggregate inputs accumulate in
// the exact int64 fields: integer addition is associative, so any morsel
// decomposition — including the fused run-at-a-time closed form
// `sum += L*v` — produces bit-identical sums.  Float64 inputs keep
// float64 accumulators filled in row order (float addition is not
// associative, so their grouping order is part of the contract).
type aggState struct {
	count  int64
	sums   []float64
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

// bindCols resolves the group-by and aggregate input columns against the
// child relation.
func (a *HashAgg) bindCols(in *Relation) (groupCols, aggCols []*Col, err error) {
	groupCols = make([]*Col, len(a.GroupBy))
	for i, g := range a.GroupBy {
		c, err := in.Col(g)
		if err != nil {
			return nil, nil, err
		}
		groupCols[i] = c
	}
	aggCols = make([]*Col, len(a.Aggs))
	for i, s := range a.Aggs {
		if s.Func == expr.AggCount && s.Col == "" {
			continue // COUNT(*)
		}
		c, err := in.Col(s.Col)
		if err != nil {
			return nil, nil, err
		}
		if c.Type == colstore.String && s.Func != expr.AggCount {
			return nil, nil, fmt.Errorf("exec: cannot %s a VARCHAR column", s.Func)
		}
		if s.Func == expr.AggCount {
			continue // COUNT(col): existence-checked only, no values read
		}
		aggCols[i] = c
	}
	return groupCols, aggCols, nil
}

// newAggState allocates one group's accumulators.
func (a *HashAgg) newAggState(sample int32) *aggState {
	return &aggState{
		sums:   make([]float64, len(a.Aggs)),
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
func (a *HashAgg) aggRange(t *aggTable, groupCols, aggCols []*Col, lo, hi int) {
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
				partBuf = append(partBuf, c.S[row]...)
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
			st.sums[i] += v
			if !st.seen[i] || v < st.mins[i] {
				st.mins[i] = v
			}
			if !st.seen[i] || v > st.maxs[i] {
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
		for i := range ds.sums {
			ds.sums[i] += ss.sums[i]
			ds.isums[i] += ss.isums[i]
			if ss.seen[i] {
				if !ds.seen[i] || ss.mins[i] < ds.mins[i] {
					ds.mins[i] = ss.mins[i]
				}
				if !ds.seen[i] || ss.maxs[i] > ds.maxs[i] {
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
func (a *HashAgg) buildOutput(t *aggTable, groupCols, aggCols []*Col) *Relation {
	out := &Relation{N: len(t.order)}
	// Group-key output columns.
	for gi, g := range a.GroupBy {
		src := groupCols[gi]
		oc := Col{Name: g, Type: src.Type}
		switch src.Type {
		case colstore.Int64:
			oc.I = make([]int64, len(t.order))
		case colstore.Float64:
			oc.F = make([]float64, len(t.order))
		default:
			oc.S = make([]string, len(t.order))
		}
		for i, key := range t.order {
			row := t.groups[key].sample
			switch src.Type {
			case colstore.Int64:
				oc.I[i] = src.I[row]
			case colstore.Float64:
				oc.F[i] = src.F[row]
			default:
				oc.S[i] = src.S[row]
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
				v = st.sums[ai]
			case expr.AggMin:
				v = st.mins[ai]
			case expr.AggMax:
				v = st.maxs[ai]
			case expr.AggAvg:
				if st.count > 0 {
					if intIn {
						v = float64(st.isums[ai]) / float64(st.count)
					} else {
						v = st.sums[ai] / float64(st.count)
					}
				}
			}
			oc.F[i] = v
		}
		out.Cols = append(out.Cols, oc)
	}
	return out
}

// aggOutName derives an aggregate's output column name — shared by the
// generic and fused output builders so fusion never changes the schema.
func aggOutName(s expr.AggSpec) string {
	if s.As != "" {
		return s.As
	}
	name := strings.ToLower(s.Func.String())
	if s.Col != "" {
		name += "_" + s.Col
	}
	return name
}

// rangeWork prices aggregating rows [lo, hi) into a partial table of
// groups result groups.  The formula depends only on the row window and
// its group count, so a fixed morsel grid charges identically at any
// degree of parallelism.
func (a *HashAgg) rangeWork(lo, hi, groups int) energy.Counters {
	n := uint64(hi - lo)
	return energy.Counters{
		TuplesIn:      n,
		TuplesOut:     uint64(groups),
		Instructions:  n * uint64(10+4*len(a.Aggs)),
		CacheMisses:   n, // one hash probe per row
		BytesReadDRAM: n * 8 * uint64(len(a.GroupBy)+len(a.Aggs)),
	}
}

// Run implements Node.
func (a *HashAgg) Run(ctx *Ctx) (*Relation, error) {
	// Fused filter→aggregate path: when the child is a fusable Scan,
	// aggregate straight off the compressed segments in one pass per
	// morsel, shard by shard (fused.go), instead of materializing the
	// filtered relation first.  The fused output is byte-identical to this
	// operator's own output over the scan's relation.
	if fp := a.fusedAggPlan(); fp != nil {
		return a.runFusedAgg(ctx, fp)
	}
	// Fused probe→aggregate path: when the child is a join whose probe side
	// fuses, its matches fold straight into partial aggregates and the
	// joined relation is never built.
	if pa := a.fusedProbeAggPlan(); pa != nil {
		return a.runFusedProbeAgg(ctx, pa)
	}
	in, err := a.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	groupCols, aggCols, err := a.bindCols(in)
	if err != nil {
		return nil, err
	}
	if in.N >= ParallelAggRows {
		return a.runParallel(ctx, in, groupCols, aggCols)
	}
	t := newAggTable()
	a.aggRange(t, groupCols, aggCols, 0, in.N)
	ctx.Charge(a.Label(), len(t.order), a.rangeWork(0, in.N, len(t.order)))
	return a.buildOutput(t, groupCols, aggCols), nil
}

// runParallel aggregates the input morsel-wise on a worker pool and
// merges the per-morsel partials in morsel order.
func (a *HashAgg) runParallel(ctx *Ctx, in *Relation, groupCols, aggCols []*Col) (*Relation, error) {
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
// partial tables into groups result groups.  Its price is a function of
// the morsel grid's partial-group count (plus whatever extra work the
// caller's merge did), mirroring the partial-aggregate merge accounting
// of internal/dist — the one formula under the generic and both fused
// aggregations.
func chargeAggMerge(ctx *Ctx, nparts int, partialGroups uint64, groups int, extra energy.Counters) {
	extra.Add(energy.Counters{
		TuplesIn:     partialGroups,
		TuplesOut:    uint64(groups),
		Instructions: partialGroups * 12,
		CacheMisses:  partialGroups / 4,
	})
	ctx.Charge(fmt.Sprintf("agg-merge(%d partials)", nparts), groups, extra)
}
