package colstore

import (
	"slices"
	"sort"

	"repro/internal/energy"
)

// Delta merge: the compaction half of the main/delta design.  Merge
// consumes the write-optimized delta and re-seals it into the
// advisor-chosen compressed codecs of the main.  It is deliberately a
// plain, synchronous, priced function — internal/exec wraps it in a
// Compact operator and internal/core offers that operator to the
// multi-query scheduler under a min-energy objective, which is what
// makes compaction "merge as a query": raced to idle when the queue is
// empty, deferred under load.

// MergeStats reports what one merge did, with the priced work the caller
// charges into its meter.
type MergeStats struct {
	Table       string
	RowsIn      int // physical rows before the merge
	DeltaRowsIn int // delta rows consumed
	RowsOut     int // physical rows after (RowsIn - Dropped)
	Dropped     int // dead rows compacted away
	// TombstonesKept counts tombstones newer than the horizon that must
	// survive (a live snapshot can still see their rows).
	TombstonesKept int
	BytesBefore    uint64
	BytesAfter     uint64
	// Rebuilt reports a main rebuilt from its kept rows — the merge
	// dropped rows, or re-coded a string column that had sealed rows —
	// rather than extended by the delta's segments sealed in place.
	Rebuilt bool
	Work    energy.Counters
}

// Merge compacts the table: rows whose tombstone commit timestamp is at
// or below horizon are dropped, visibility metadata at or below horizon
// is retired, and every column is re-sealed so the delta becomes part of
// the compressed main.  horizon <= 0 means "no snapshot older than now
// is live" — everything compactible is compacted.  Callers pass the
// oldest live snapshot timestamp so in-flight readers keep a consistent
// view; stable row ids survive the renumbering.
//
// It is the only way into the main, and one pass a segment at a time.
// With nothing to drop and no string column that has sealed rows
// re-coded, the main is extended: the delta's raw segments seal in place
// (cost proportional to the delta) and row ids stay implicit.  Otherwise
// it is rebuilt from its kept rows (cost proportional to the table), cut
// anew so that every integer and string column stays cut at the same
// rows.  Either way each new segment seals through one step
// (synBuilder.seal), and the visibility metadata is retired and
// renumbered in place.
func (t *Table) Merge(horizon int64) (MergeStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := func(ts int64) bool { return horizon > 0 && ts > horizon }
	n := t.lenLocked()
	delta := n - t.sealedRows
	st := MergeStats{
		Table:       t.Name,
		RowsIn:      n,
		DeltaRowsIn: delta,
		BytesBefore: t.bytesLocked(),
	}
	var dropped []int32 // ascending, as delRows is
	for i, ts := range t.delTS {
		if keep(ts) {
			st.TombstonesKept++
		} else {
			dropped = append(dropped, t.delRows[i])
		}
	}
	st.Dropped = len(dropped)
	kept := n - st.Dropped
	var drop []bool
	if st.Dropped > 0 {
		drop = make([]bool, n)
		for _, r := range dropped {
			drop[r] = true
		}
		ids := make([]int64, 0, kept)
		for i := 0; i < n; i++ {
			if drop[i] {
				continue
			}
			if t.rowIDs == nil {
				ids = append(ids, int64(i))
			} else {
				ids = append(ids, t.rowIDs[i])
			}
		}
		t.rowIDs = ids
	}
	st.Rebuilt = drop != nil || t.sealedRows > 0 && slices.ContainsFunc(t.cols, func(c Column) bool {
		sc, ok := c.(*StringColumn)
		return ok && !sc.ordered
	})
	st.Work = mergeWork(t.cols, st.Rebuilt, n, delta, kept)
	if st.Rebuilt {
		t.rebuildLocked(drop, kept)
	} else {
		t.extendLocked()
	}
	// A row a live snapshot may not see yet was added after the horizon,
	// so it cannot have been dropped (its tombstone, if any, is newer
	// still): every kept entry's row survives, shifted down past the
	// dropped rows below it.
	newPos := func(r int32) int32 {
		return r - int32(sort.Search(len(dropped), func(i int) bool { return dropped[i] >= r }))
	}
	t.addRows, t.addTS = retain(t.addRows, t.addTS, keep, newPos)
	t.delRows, t.delTS = retain(t.delRows, t.delTS, keep, newPos)
	t.sealedRows = kept
	t.writeEpoch++
	st.RowsOut = kept
	st.BytesAfter = t.bytesLocked()
	return st, nil
}

// mergeWork prices a merge of n rows, delta of them in the delta and
// kept of them kept, over cols as they stand before it.  A rebuild
// streams every column whole and writes its kept rows, a string column at
// 10 bytes a row (codes and dictionary); an extend streams the delta's
// integer and string values and writes the codes a first merge re-codes.
func mergeWork(cols []Column, rebuilt bool, n, delta, kept int) energy.Counters {
	var w energy.Counters
	for _, c := range cols {
		sc, str := c.(*StringColumn)
		switch {
		case rebuilt && str:
			w.BytesReadDRAM += uint64(n) * 10
			w.BytesWrittenDRAM += uint64(kept) * 10
		case rebuilt:
			w.BytesReadDRAM += uint64(n) * 8
			w.BytesWrittenDRAM += uint64(kept) * 8
		case str && !sc.ordered:
			w.BytesReadDRAM += uint64(delta) * 8
			w.BytesWrittenDRAM += uint64(delta) * 8
		case intsOf(c) != nil:
			w.BytesReadDRAM += uint64(delta) * 8
		}
	}
	if rebuilt {
		w.Instructions = uint64(n) * uint64(len(cols)) * 6
		w.TuplesIn, w.TuplesOut = uint64(n), uint64(kept)
	} else {
		w.Instructions = uint64(delta) * uint64(len(cols)) * 4
		w.TuplesIn, w.TuplesOut = uint64(delta), uint64(delta)
	}
	return w
}

// extendLocked seals the delta's raw segments in place, after a first
// merge has remapped, in place too, each re-coded string column's codes
// onto its sorted dictionary.
func (t *Table) extendLocked() {
	for _, c := range t.cols {
		if sc, ok := c.(*StringColumn); ok && !sc.ordered {
			nc, remap := sc.redict(nil)
			for _, s := range sc.codes.segs {
				for i, code := range s.raw {
					s.raw[i] = remap[code]
				}
			}
			nc.codes = sc.codes
			*sc = *nc
		}
	}
	b := newSynBuilder(t.schema)
	if grid := gridOf(t.cols); grid != nil {
		for si, s := range grid.segs {
			if !s.sealed {
				t.syn = b.seal(t.cols, si, t.syn)
			}
		}
	}
}

// rebuildLocked replaces the main with its rows whose drop bit is clear
// (every row when drop is nil; kept of them), cut anew on the SegSize
// grid, and their synopses.  Each integer and string column is read
// through a cursor that decodes each old segment once, and a string
// column's codes are remapped onto the dictionary of the values kept rows
// use; each new segment seals as soon as every column has cut it.  The
// new columns are built aside and swapped in: the old ones are not
// changed.
func (t *Table) rebuildLocked(drop []bool, kept int) {
	cols := make([]Column, len(t.cols))
	curs := make([]cursor, len(t.cols))
	for ci, c := range t.cols {
		switch c := c.(type) {
		case *IntColumn:
			cols[ci], curs[ci] = NewIntColumn(), cursor{src: c, drop: drop}
		case *StringColumn:
			nc, remap := c.redict(drop)
			cols[ci], curs[ci] = nc, cursor{src: c.codes, drop: drop, remap: remap}
		case *FloatColumn:
			vals := make([]float64, 0, kept)
			for i, v := range c.vals {
				if drop == nil || !drop[i] {
					vals = append(vals, v)
				}
			}
			cols[ci] = &FloatColumn{vals: vals}
		}
	}
	var syn []segSynopses
	b := newSynBuilder(t.schema)
	for grid := gridOf(cols); grid != nil && grid.n < kept; {
		n := min(SegSize, kept-grid.n)
		for ci, c := range cols {
			if ic := intsOf(c); ic != nil {
				ic.appendRaw(curs[ci].next(n))
			}
		}
		syn = b.seal(cols, len(grid.segs)-1, syn)
	}
	t.cols, t.syn = cols, syn
}

// cursor reads an integer column's rows whose drop bit is clear (every
// row when drop is nil) in order, each value replaced by remap[value]
// when remap is non-nil; each segment is decoded once, when the first of
// its rows is read.
type cursor struct {
	src   *IntColumn
	drop  []bool
	remap []int64
	si    int     // the next segment to read
	row   int     // the first row of the segment read last
	vals  []int64 // its values
	j     int     // the next of them to read
	buf   []int64
}

// next returns the next n values, in a slice of exactly n.
func (c *cursor) next(n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		if c.j == len(c.vals) {
			c.row, c.vals, c.j = c.src.starts[c.si], c.src.segs[c.si].values(&c.buf), 0
			c.si++
		}
		for ; c.j < len(c.vals) && len(out) < n; c.j++ {
			if c.drop != nil && c.drop[c.row+c.j] {
				continue
			}
			v := c.vals[c.j]
			if c.remap != nil {
				v = c.remap[v]
			}
			out = append(out, v)
		}
	}
	return out
}

// retain keeps, in place, the visibility entries whose timestamps keep
// selects, each row renumbered by pos; an emptied list frees its array.
func retain(rows []int32, ts []int64, keep func(int64) bool, pos func(int32) int32) ([]int32, []int64) {
	j := 0
	for i, r := range rows {
		if keep(ts[i]) {
			rows[j], ts[j] = pos(r), ts[i]
			j++
		}
	}
	if j == 0 {
		return nil, nil
	}
	return rows[:j], ts[:j]
}

func (t *Table) bytesLocked() uint64 {
	b := t.synBytesLocked()
	for _, c := range t.cols {
		b += c.Bytes()
	}
	return b
}
