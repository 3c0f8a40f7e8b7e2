package colstore

import (
	"math"
	"slices"
	"sort"

	"repro/internal/compress"
	"repro/internal/num"
)

// Segment synopses: Small Materialized Aggregates (Moerkotte, VLDB 1998)
// over the main.  A sealed segment does not change until the next merge,
// so aggregates computed when a merge seals it stay exact until then.
// Every merge therefore stores, beside each segment it seals, one
// synopsis per integer or string column — the count and every numeric
// column's aggregates per value of that column — and a global one: the
// first complete one, its groups summed when it is read, or else the
// aggregates over the whole segment.  A synopsis is complete when the
// column has at most synMaxValues distinct values in the segment;
// otherwise it is partial and holds only the column's heavy values, those
// on at least n/synMaxValues of the segment's n rows (so at most
// synMaxValues of them), and none when no value is that frequent or the
// values span twice the rows or more.  A scan
// window that is exactly one such segment folds its aggregate from them
// without reading a row (exec's scan-window feeder) when every row is
// selected, or when its one predicate is an equality on the column and
// the synopsis holds the value (a complete one that does not hold it
// matches no row): Lin et al.'s operate-on-compressed rule taken from one
// run of a value (RLE's n·v) to one segment of a value.
//
// Every aggregate is num's order-free arithmetic — a BIGINT ring sum, a
// DOUBLE num.FloatSum, MIN/MAX keys — so a fold from a synopsis gives
// the bits a fold of the rows gives; and values are kept in order of
// first occurrence, the group order a fold of the rows produces.

// synMaxValues is the most distinct values a column may have in a
// segment for the segment to keep a complete synopsis grouped by it, and
// the fraction 1/synMaxValues of its rows a value needs to be kept in a
// partial one.
const synMaxValues = 64

// floatSumBytes is the size of a num.FloatSum: three int64 limbs, the
// window and the flags, padded.
const floatSumBytes = 32

// Synopsis is the aggregate of every row of one sealed segment, grouped
// by one column or not at all (one group, key 0).  The per-column slices
// are indexed by schema column and then by group; a slice is nil where
// the column's type keeps no such aggregate.
type Synopsis struct {
	// Keys are the groups' values — a string column's codes — in order of
	// first occurrence in the segment; Counts their rows.
	Keys, Counts []int64
	Sums         [][]int64        // BIGINT: the ring sum
	FSums        [][]num.FloatSum // DOUBLE: the exact sum's state
	Mins, Maxs   [][]int64        // BIGINT as is, DOUBLE as its num.MinMaxKey
	// Partial marks a synopsis of the column's heavy values only: a value
	// it does not hold may still be on the segment's rows.
	Partial bool
}

// segSynopses are the synopses of one sealed segment, rows
// [start, start+n): per schema column, the one grouped by it (nil when it
// keeps none), and the global one — the first complete grouped one when
// there is one (a fold with no GROUP BY adds all its groups into its one
// group), otherwise its own, of one group.
type segSynopses struct {
	start, n int
	global   *Synopsis
	by       []*Synopsis
}

// Synopsis returns the synopsis of rows [lo, hi) grouped by schema column
// col, or the global one when col is -1, if those rows are exactly one
// sealed segment that keeps it; nil otherwise.
func (t *Table) Synopsis(lo, hi, col int) *Synopsis {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.syn), func(i int) bool { return t.syn[i].start >= lo })
	if i == len(t.syn) || t.syn[i].start != lo || t.syn[i].n != hi-lo {
		return nil
	}
	if col < 0 {
		return t.syn[i].global
	}
	return t.syn[i].by[col]
}

// gridOf returns the column whose segments the synopses follow — every
// integer and string column is cut at the same rows — the first integer
// or string column (a string's codes); nil when there is none (a DOUBLE
// column is flat).
func gridOf(cols []Column) *IntColumn {
	for _, c := range cols {
		if ic := intsOf(c); ic != nil {
			return ic
		}
	}
	return nil
}

// synBytesLocked is the synopses' footprint.
func (t *Table) synBytesLocked() uint64 {
	var b uint64
	for _, ss := range t.syn {
		for _, s := range ss.by {
			b += s.bytes()
		}
		if !slices.Contains(ss.by, ss.global) {
			b += ss.global.bytes()
		}
	}
	return b
}

// bytes is the synopsis's footprint: its keys, counts and accumulators.
func (s *Synopsis) bytes() uint64 {
	if s == nil {
		return 0
	}
	b := 16 * len(s.Keys)
	for ci := range s.Sums {
		b += 8*(len(s.Sums[ci])+len(s.Mins[ci])+len(s.Maxs[ci])) + floatSumBytes*len(s.FSums[ci])
	}
	return uint64(b)
}

// synBuilder seals segments and builds their synopses one row group at a
// time on reused buffers: each integer or string column's raw values
// (vals; a string column's codes), each DOUBLE column's (floats), the
// folded rows' group ids, a partial synopsis's rows and its count per
// value.
type synBuilder struct {
	schema Schema
	vals   [][]int64
	floats [][]float64
	gids   []uint8 // a group id per folded row: synMaxValues fits a byte
	rows   []int32
	counts []int32
}

func newSynBuilder(schema Schema) *synBuilder {
	return &synBuilder{schema: schema, vals: make([][]int64, len(schema)), floats: make([][]float64, len(schema))}
}

// seal seals segment si of every integer and string column of cols — the
// same rows [start, start+n) in each, raw — and, when it starts on the
// SegSize grid (exec's scan windows are cut on that grid, MorselRows ==
// SegSize, so no window can equal any other segment), appends their
// synopses to syn.  Each column's values are profiled once
// (compress.Analyze) and the profile is used twice: it picks the
// segment's codec (intSegment.seal), and its exact distinct count and
// range pick the synopsis grouped by the column — complete with at most
// synMaxValues values, none when no value can be on n/synMaxValues rows
// or the values span 2n or more, partial otherwise.
func (b *synBuilder) seal(cols []Column, si int, syn []segSynopses) []segSynopses {
	grid := gridOf(cols)
	start, n := grid.starts[si], grid.segs[si].length()
	for ci, c := range cols {
		if fc, ok := c.(*FloatColumn); ok {
			b.floats[ci] = fc.vals[start : start+n]
		} else {
			b.vals[ci] = intsOf(c).segs[si].raw
		}
	}
	onGrid := start%SegSize == 0
	ss := segSynopses{start: start, n: n, by: make([]*Synopsis, len(cols))}
	for ci, c := range cols {
		ic := intsOf(c)
		if ic == nil {
			continue
		}
		vals := b.vals[ci]
		p := compress.Analyze(vals)
		switch {
		case !onGrid:
		case p.Distinct <= synMaxValues:
			ss.by[ci] = b.synopsis(b.group(vals), nil)
			if ss.global == nil {
				ss.global = ss.by[ci]
			}
		default:
			if keys := b.heavy(vals, &p); len(keys) > 0 {
				ss.by[ci] = b.synopsis(keys, b.rows)
			}
		}
		ic.segs[si].seal(&p)
	}
	if !onGrid {
		return syn
	}
	if ss.global == nil {
		b.gids = grown(b.gids, n)
		clear(b.gids)
		ss.global = b.synopsis([]int64{0}, nil)
	}
	return append(syn, ss)
}

// group numbers the values of a segment's rows, at most synMaxValues
// distinct ones, in order of first occurrence through a small
// open-addressing table, writes each row's number into b.gids and returns
// the values in that order.
func (b *synBuilder) group(vals []int64) (keys []int64) {
	b.gids = grown(b.gids, len(vals))
	const slots = 2 * synMaxValues
	var slotKey [slots]int64
	var slotGroup [slots]uint8 // group + 1; 0 = empty
	for r, v := range vals {
		i := (uint64(v) * 0x9E3779B97F4A7C15) >> 57 // the top 7 bits: slots == 128
		for slotGroup[i] != 0 && slotKey[i] != v {
			i = (i + 1) % slots
		}
		if slotGroup[i] == 0 {
			keys = append(keys, v)
			slotKey[i], slotGroup[i] = v, uint8(len(keys))
		}
		b.gids[r] = slotGroup[i] - 1
	}
	return keys
}

// heavy returns a segment's heavy values — those on at least
// n/synMaxValues of its n rows — in order of first occurrence, with their
// rows in b.rows and each such row's group in b.gids; p is the values'
// profile.  It keeps none when the values are too many for any to be
// heavy (a heavy value leaves at most n-need other rows), or span twice
// the rows or more; otherwise it counts them in one array over their
// span.
func (b *synBuilder) heavy(vals []int64, p *compress.Profile) (keys []int64) {
	n := len(vals)
	need := (n + synMaxValues - 1) / synMaxValues
	if p.Distinct > n-need+1 || uint64(p.Max)-uint64(p.Min) >= 2*uint64(n) {
		return nil
	}
	lo := p.Min
	b.counts = grown(b.counts, int(p.Max-lo)+1)
	clear(b.counts)
	for _, v := range vals {
		b.counts[v-lo]++
	}
	b.rows, b.gids = grown(b.rows, n), grown(b.gids, n)
	k := 0
	for r, v := range vals {
		c := b.counts[v-lo]
		if c >= int32(need) { // a heavy value's first row: number it
			keys = append(keys, v)
			c = -int32(len(keys))
			b.counts[v-lo] = c
		}
		// Every row is written; only a heavy value's row is kept (c < 0).
		b.rows[k], b.gids[k] = int32(r), uint8(-c-1)
		k += int(uint32(c) >> 31)
	}
	b.rows, b.gids = b.rows[:k], b.gids[:k]
	return keys
}

// synopsis aggregates a segment's rows into the groups b.gids assigns
// them, whose values are keys: every row, or only rows, those of a
// partial synopsis.
func (b *synBuilder) synopsis(keys []int64, rows []int32) *Synopsis {
	schema := b.schema
	g := len(keys)
	s := &Synopsis{
		Keys: keys, Counts: make([]int64, g),
		Sums: make([][]int64, len(schema)), FSums: make([][]num.FloatSum, len(schema)),
		Mins: make([][]int64, len(schema)), Maxs: make([][]int64, len(schema)),
		Partial: rows != nil,
	}
	for _, gi := range b.gids {
		s.Counts[gi]++
	}
	for ci, d := range schema {
		switch d.Type {
		case Int64:
			s.Sums[ci], s.Mins[ci], s.Maxs[ci] = foldInts(b.vals[ci], b.gids, rows, g)
		case Float64:
			s.FSums[ci], s.Mins[ci], s.Maxs[ci] = foldFloats(b.floats[ci], b.gids, rows, g)
		}
	}
	return s
}

// foldInts returns each of g groups' ring sum, MIN and MAX of vals: the
// j-th folded row, rows[j] (row j when rows is nil), in group gids[j].
func foldInts(vals []int64, gids []uint8, rows []int32, g int) (sums, mins, maxs []int64) {
	type acc struct{ sum, min, max int64 }
	a := make([]acc, g)
	for i := range a {
		a[i] = acc{0, math.MaxInt64, math.MinInt64}
	}
	for j, gi := range gids {
		r := j
		if rows != nil {
			r = int(rows[j])
		}
		p, v := &a[gi], vals[r]
		p.sum, p.min, p.max = num.RingAdd(p.sum, v, 1), min(p.min, v), max(p.max, v)
	}
	sums, mins, maxs = make([]int64, g), make([]int64, g), make([]int64, g)
	for i, p := range a {
		sums[i], mins[i], maxs[i] = p.sum, p.min, p.max
	}
	return sums, mins, maxs
}

// foldFloats returns each of g groups' exact sum state and the MIN and
// MAX of its num.MinMaxKeys over vals: the j-th folded row, rows[j] (row
// j when rows is nil), in group gids[j].
func foldFloats(vals []float64, gids []uint8, rows []int32, g int) (sums []num.FloatSum, mins, maxs []int64) {
	type acc struct {
		sum      num.FloatSum
		min, max int64
	}
	a := make([]acc, g)
	for i := range a {
		a[i].min, a[i].max = math.MaxInt64, math.MinInt64
	}
	for j, gi := range gids {
		r := j
		if rows != nil {
			r = int(rows[j])
		}
		p, v := &a[gi], vals[r]
		k := num.MinMaxKey(v)
		p.sum.Add(v)
		p.min, p.max = min(p.min, k), max(p.max, k)
	}
	sums, mins, maxs = make([]num.FloatSum, g), make([]int64, g), make([]int64, g)
	for i, p := range a {
		sums[i], mins[i], maxs[i] = p.sum, p.min, p.max
	}
	return sums, mins, maxs
}

// intsOf returns the integer column c is or stores its codes in, nil for
// a DOUBLE column.
func intsOf(c Column) *IntColumn {
	switch c := c.(type) {
	case *IntColumn:
		return c
	case *StringColumn:
		return c.codes
	}
	return nil
}

// grown returns xs as n entries, on its own storage when that is large
// enough.
func grown[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}
