package colstore

import (
	"fmt"

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
	Rebuilt        bool // full rewrite (deletes) vs. tail re-seal
	Work           energy.Counters
}

// Merge compacts the table: rows whose tombstone commit timestamp is at
// or below horizon are dropped, visibility metadata at or below horizon
// is retired, and every column is re-sealed so the delta becomes part of
// the compressed main.  horizon <= 0 means "no snapshot older than now
// is live" — everything compactible is compacted.  Callers pass the
// oldest live snapshot timestamp so in-flight readers keep a consistent
// view; stable row ids survive the renumbering.
//
// Two paths: with no droppable tombstone the delta's raw tail segments
// are sealed in place (cost proportional to the delta); otherwise the
// table is rebuilt column by column (cost proportional to the table).
func (t *Table) Merge(horizon int64) (MergeStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sealed {
		return MergeStats{}, fmt.Errorf("colstore: merge of %s before Seal", t.Name)
	}
	cut := func(ts int64) bool { return horizon <= 0 || ts <= horizon }
	n := t.lenLocked()
	st := MergeStats{
		Table:       t.Name,
		RowsIn:      n,
		DeltaRowsIn: n - t.sealedRows,
		BytesBefore: t.bytesLocked(),
	}
	drop := make([]bool, 0) // lazily sized; empty means no drops
	for i, ts := range t.delTS {
		if cut(ts) {
			if len(drop) == 0 {
				drop = make([]bool, n)
			}
			drop[int(t.delRows[i])] = true
			st.Dropped++
		} else {
			st.TombstonesKept++
		}
	}
	if st.Dropped == 0 {
		t.mergeTailLocked(cut, &st)
	} else {
		if err := t.mergeRebuildLocked(drop, cut, &st); err != nil {
			return st, err
		}
	}
	t.writeEpoch++
	st.RowsOut = t.lenLocked()
	st.BytesAfter = t.bytesLocked()
	return st, nil
}

func (t *Table) bytesLocked() uint64 {
	var b uint64
	for _, c := range t.cols {
		b += c.Bytes()
	}
	return b
}

// mergeTailLocked seals the delta's raw tail segments in place and
// retires visibility metadata at or below the horizon.
func (t *Table) mergeTailLocked(cut func(int64) bool, st *MergeStats) {
	n := t.lenLocked()
	d := uint64(n - t.sealedRows)
	var w energy.Counters
	for _, c := range t.cols {
		switch cc := c.(type) {
		case *IntColumn:
			cc.Seal()
			w.BytesReadDRAM += d * 8
		case *FloatColumn:
			// Flat storage: nothing to re-seal, nothing streamed.
		case *StringColumn:
			if !cc.Ordered() {
				// New dictionary entries force a full code remap to
				// restore the order-preserving dictionary.
				w.BytesReadDRAM += uint64(n) * 8
				w.BytesWrittenDRAM += uint64(n) * 8
			} else {
				w.BytesReadDRAM += d * 8
			}
			cc.SealSorted()
		}
	}
	t.sealedRows = n
	t.retireMetadataLocked(cut)
	w.Instructions += d * uint64(len(t.cols)) * 4
	w.TuplesIn += d
	w.TuplesOut += d
	st.Work = w
}

// retireMetadataLocked drops add-visibility entries and (kept) is a
// no-op for tombstones — callers on the tail path have already verified
// no tombstone is droppable.
func (t *Table) retireMetadataLocked(cut func(int64) bool) {
	// addTS is nondecreasing, so retired entries form a prefix.
	i := 0
	for i < len(t.addTS) && cut(t.addTS[i]) {
		i++
	}
	if i > 0 {
		t.addRows = append([]int32(nil), t.addRows[i:]...)
		t.addTS = append([]int64(nil), t.addTS[i:]...)
	}
}

// mergeRebuildLocked rewrites the table without the dropped rows,
// renumbering positions while preserving stable row ids and the
// surviving visibility metadata.  Each column is filtered a segment at a
// time straight into sealed segments (strings in the code domain), so
// the sealLocked that ends it only validates.
func (t *Table) mergeRebuildLocked(drop []bool, cut func(int64) bool, st *MergeStats) error {
	st.Rebuilt = true
	n := t.lenLocked()
	kept := 0
	newPos := make([]int32, n) // old row -> new row (valid where !drop)
	for i := 0; i < n; i++ {
		if !drop[i] {
			newPos[i] = int32(kept)
			kept++
		}
	}
	newCols := make([]Column, len(t.cols))
	var w energy.Counters
	for ci, c := range t.cols {
		switch cc := c.(type) {
		case *IntColumn:
			newCols[ci] = sealedFrom(cc, drop, kept, nil)
			w.BytesReadDRAM += uint64(n) * 8
			w.BytesWrittenDRAM += uint64(kept) * 8
		case *FloatColumn:
			vals := make([]float64, 0, kept)
			for i, v := range cc.vals {
				if !drop[i] {
					vals = append(vals, v)
				}
			}
			newCols[ci] = &FloatColumn{vals: vals}
			w.BytesReadDRAM += uint64(n) * 8
			w.BytesWrittenDRAM += uint64(kept) * 8
		case *StringColumn:
			newCols[ci] = cc.without(drop, kept)
			w.BytesReadDRAM += uint64(n) * 10
			w.BytesWrittenDRAM += uint64(kept) * 10
		}
	}
	// Stable ids: materialize the id map before positions shift.
	newIDs := make([]int64, 0, kept)
	for i := 0; i < n; i++ {
		if drop[i] {
			continue
		}
		if t.rowIDs == nil {
			newIDs = append(newIDs, int64(i))
		} else {
			newIDs = append(newIDs, t.rowIDs[i])
		}
	}
	// Surviving visibility metadata, renumbered.  A row added after the
	// horizon cannot have been dropped (its tombstone, if any, is newer
	// than its insert, hence newer than the horizon), so newPos is valid.
	var addRows []int32
	var addTS []int64
	for i, ts := range t.addTS {
		if cut(ts) {
			continue
		}
		addRows = append(addRows, newPos[int(t.addRows[i])])
		addTS = append(addTS, ts)
	}
	var delRows []int32
	var delTS []int64
	for i, ts := range t.delTS {
		if cut(ts) {
			continue
		}
		delRows = append(delRows, newPos[int(t.delRows[i])])
		delTS = append(delTS, ts)
	}
	t.cols = newCols
	t.rowIDs = newIDs
	t.addRows, t.addTS = addRows, addTS
	t.delRows, t.delTS = delRows, delTS
	if err := t.sealLocked(); err != nil {
		return err
	}
	w.Instructions += uint64(n) * uint64(len(t.cols)) * 6
	w.TuplesIn += uint64(n)
	w.TuplesOut += uint64(kept)
	st.Work = w
	return nil
}
