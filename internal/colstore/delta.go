package colstore

import (
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/vec"
)

// MVCC visibility over the main/delta pair.
//
// The delta is append-only: committed inserts append one row and stamp
// its commit timestamp into addRows/addTS; committed deletes add a
// (row, timestamp) tombstone to delRows/delTS.  A snapshot at timestamp
// S sees exactly the rows with addedTS <= S and no tombstone <= S.
// Because appends commit in timestamp order and Merge preserves relative
// row order, the rows visible to S are always a PREFIX of the physical
// row space — RowsAsOf(S) — so scans admitted at snapshot S simply scan
// [0, RowsAsOf(S)) and mask tombstones.  That makes every scan counter a
// pure function of (snapshot, window grid): schedule- and DOP-invariant
// even while later writes keep appending behind the scan.

// RowsAsOf returns the number of physical rows whose insertion is
// visible at snapshot snap: the scan prefix for a query admitted at that
// snapshot.  snap <= 0 means all rows.
func (t *Table) RowsAsOf(snap int64) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rowsAsOfLocked(snap)
}

func (t *Table) rowsAsOfLocked(snap int64) int {
	n := t.lenLocked()
	if snap <= 0 || len(t.addRows) == 0 {
		return n
	}
	// addTS is nondecreasing in slice order; the first entry past snap
	// starts the invisible suffix.
	i := sort.Search(len(t.addTS), func(i int) bool { return t.addTS[i] > snap })
	if i == len(t.addTS) {
		return n
	}
	return int(t.addRows[i])
}

// HasTombstones reports whether any delete is pending compaction.
func (t *Table) HasTombstones() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.delRows) > 0
}

// FilterVisible clears the bits of rows in [lo, hi) that are tombstoned
// at snapshot snap (bit i of sel represents row lo+i), and returns the
// counters the masking cost.  The counters are a function of (snapshot,
// window, tombstones visible at the snapshot) alone — tombstones
// committed after snap cost nothing — so masked scans stay byte-
// deterministic at every schedule and DOP.  A nil sel prices the masking
// without clearing a bit.
func (t *Table) FilterVisible(snap int64, lo, hi int, sel *vec.Bitvec) energy.Counters {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var w energy.Counters
	if len(t.delRows) == 0 {
		return w
	}
	i := sort.Search(len(t.delRows), func(i int) bool { return int(t.delRows[i]) >= lo })
	for ; i < len(t.delRows) && int(t.delRows[i]) < hi; i++ {
		if snap > 0 && t.delTS[i] > snap {
			continue
		}
		if sel != nil {
			sel.Clear(int(t.delRows[i]) - lo)
		}
		// One tombstone probe: a binary-search step amortized over the
		// window plus the bit clear.
		w.Instructions += 2
		w.CacheMisses++
	}
	return w
}

// Hides reports whether a tombstone visible at snapshot snap hides a row
// of [lo, hi): whether FilterVisible would clear a bit of the window.
func (t *Table) Hides(snap int64, lo, hi int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := sort.Search(len(t.delRows), func(i int) bool { return int(t.delRows[i]) >= lo })
	for ; i < len(t.delRows) && int(t.delRows[i]) < hi; i++ {
		if snap <= 0 || t.delTS[i] <= snap {
			return true
		}
	}
	return false
}

// tombstoneLocked finds row's entry in the sorted tombstone list.
func (t *Table) tombstoneLocked(row int) (int, bool) {
	i := sort.Search(len(t.delRows), func(i int) bool { return int(t.delRows[i]) >= row })
	if i < len(t.delRows) && int(t.delRows[i]) == row {
		return i, true
	}
	return 0, false
}

// RowID returns the stable id of physical row i.  Ids survive merges
// (compaction renumbers positions, not ids), so the WAL and transactions
// address rows by id.
func (t *Table) RowID(row int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rowIDs == nil {
		return int64(row)
	}
	return t.rowIDs[row]
}

// LookupRow resolves a stable row id to its current physical position.
func (t *Table) LookupRow(id int64) (int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lookupRowLocked(id)
}

func (t *Table) lookupRowLocked(id int64) (int, bool) {
	if t.rowIDs == nil {
		if id < 0 || id >= int64(t.lenLocked()) {
			return 0, false
		}
		return int(id), true
	}
	// rowIDs is ascending (appends allocate increasing ids, merges keep
	// relative order).
	i := sort.Search(len(t.rowIDs), func(i int) bool { return t.rowIDs[i] >= id })
	if i < len(t.rowIDs) && t.rowIDs[i] == id {
		return i, true
	}
	return 0, false
}

// DeletedAt returns the commit timestamp of the tombstone on the row
// with the given stable id, if any.
func (t *Table) DeletedAt(id int64) (int64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.lookupRowLocked(id)
	if !ok {
		return 0, false
	}
	if i, dead := t.tombstoneLocked(row); dead {
		return t.delTS[i], true
	}
	return 0, false
}

// ApplyInsert appends one committed row to the delta, stamping commit
// timestamp ts and WAL position lsn.  Returns the new row's stable id.
// Callers serialize commits; ts must be >= every previously applied
// timestamp, and the rows one commit inserts share one visibility entry.
func (t *Table) ApplyInsert(ts int64, lsn uint64, vals ...any) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts < t.lastTS {
		return 0, fmt.Errorf("colstore: table %s: commit ts %d below applied ts %d", t.Name, ts, t.lastTS)
	}
	if err := t.checkRowLocked(vals); err != nil {
		return 0, err
	}
	if t.row == nil {
		t.row = make([]any, len(t.cols))
		appendRow(t.row, vals)
	} else {
		setRow(t.row, vals)
	}
	row := t.appendLocked(ts, lsn, t.row)
	if t.rowIDs != nil {
		return t.rowIDs[row], nil
	}
	return int64(row), nil
}

// appendRow appends one checked row's values to the column-wise batch b.
func appendRow(b []any, vals []any) {
	for i, v := range vals {
		switch v := v.(type) {
		case int64:
			s, _ := b[i].([]int64)
			b[i] = append(s, v)
		case float64:
			s, _ := b[i].([]float64)
			b[i] = append(s, v)
		case string:
			s, _ := b[i].([]string)
			b[i] = append(s, v)
		}
	}
}

// setRow overwrites the one-row batch b, made by appendRow, with a
// checked row's values.
func setRow(b []any, vals []any) {
	for i, v := range vals {
		switch v := v.(type) {
		case int64:
			b[i].([]int64)[0] = v
		case float64:
			b[i].([]float64)[0] = v
		case string:
			b[i].([]string)[0] = v
		}
	}
}

// appendLocked is the one way rows enter the table: it appends the
// column-wise batches (each one typed slice per column, all of one
// length; a nil batch is empty) to the delta as one commit at timestamp
// ts, and returns the commit's first row.  The commit costs one
// visibility entry, and stable ids continue from the last one issued.
func (t *Table) appendLocked(ts int64, lsn uint64, batches ...[]any) int {
	first := t.lenLocked()
	for _, b := range batches {
		if b == nil {
			continue
		}
		for i, c := range t.cols {
			c.appendBatch(b[i])
		}
	}
	n := t.lenLocked()
	if t.rowIDs == nil {
		t.nextRowID = int64(n)
	} else {
		for len(t.rowIDs) < n {
			t.rowIDs = append(t.rowIDs, t.nextRowID)
			t.nextRowID++
		}
	}
	if k := len(t.addTS); k == 0 || t.addTS[k-1] != ts {
		t.addRows = append(t.addRows, int32(first))
		t.addTS = append(t.addTS, ts)
	}
	t.lastTS = ts
	t.noteLSNLocked(lsn)
	t.writeEpoch++
	return first
}

// ApplyDelete tombstones the row with the given stable id at commit
// timestamp ts.  Deleting an already tombstoned or unknown row is an
// error (the transaction layer turns it into a write-write conflict).
func (t *Table) ApplyDelete(ts int64, lsn uint64, id int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyDeleteLocked(ts, lsn, id)
}

func (t *Table) applyDeleteLocked(ts int64, lsn uint64, id int64) error {
	row, ok := t.lookupRowLocked(id)
	if !ok {
		return fmt.Errorf("colstore: table %s has no row id %d", t.Name, id)
	}
	i := sort.Search(len(t.delRows), func(i int) bool { return int(t.delRows[i]) >= row })
	if i < len(t.delRows) && int(t.delRows[i]) == row {
		return fmt.Errorf("colstore: table %s row id %d already deleted at ts %d", t.Name, id, t.delTS[i])
	}
	t.delRows = append(t.delRows, 0)
	t.delTS = append(t.delTS, 0)
	copy(t.delRows[i+1:], t.delRows[i:])
	copy(t.delTS[i+1:], t.delTS[i:])
	t.delRows[i] = int32(row)
	t.delTS[i] = ts
	if ts > t.lastTS {
		t.lastTS = ts
	}
	t.noteLSNLocked(lsn)
	t.writeEpoch++
	return nil
}

func (t *Table) noteLSNLocked(lsn uint64) {
	if lsn > t.appliedLSN {
		t.appliedLSN = lsn
	}
}
