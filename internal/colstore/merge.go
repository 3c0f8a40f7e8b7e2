package colstore

import (
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
// It is the only way into the main, and one pass: each column merges
// itself under the drop mask.  With nothing to drop the delta's raw tail
// segments are sealed in place (cost proportional to the delta) and row
// ids stay implicit; otherwise every column is rebuilt from its kept rows
// (cost proportional to the table).  Either way the visibility metadata
// is retired and renumbered in place.
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
		st.Rebuilt = true
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
	// The delta's segments get their synopses from their raw values,
	// before they seal; a rebuild cuts every segment anew, and builds all
	// of them after.
	rebuild, recoded := t.recodesLocked(drop != nil)
	if !rebuild {
		t.synopsesLocked(t.sealedRows)
	}
	var w energy.Counters
	for i, c := range t.cols {
		nc, cw := c.merge(drop, kept, delta)
		t.cols[i] = nc
		w.Add(cw)
	}
	if drop != nil {
		w.Instructions += uint64(n) * uint64(len(t.cols)) * 6
		w.TuplesIn += uint64(n)
		w.TuplesOut += uint64(kept)
	} else {
		w.Instructions += uint64(delta) * uint64(len(t.cols)) * 4
		w.TuplesIn += uint64(delta)
		w.TuplesOut += uint64(delta)
	}
	st.Work = w
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
	if rebuild {
		t.syn = nil
		t.synopsesLocked(0)
	} else {
		t.rekeyLocked(recoded)
	}
	t.writeEpoch++
	st.RowsOut = kept
	st.BytesAfter = t.bytesLocked()
	return st, nil
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
