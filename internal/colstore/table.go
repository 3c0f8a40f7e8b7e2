package colstore

import (
	"fmt"
	"sync"

	"repro/internal/compress"
)

// Table is a named collection of equally long columns, organized as the
// HANA-style main/delta pair (§II).  Rows enter only through the
// write-optimized delta — the raw tail segments every column keeps past
// its sealed prefix — each batch as one commit (Writer.Close, or
// ApplyInsert from the transactional path and WAL replay); they reach
// the compressed, scan-optimized main only through Merge, which re-seals
// the delta into advisor-chosen codecs.  A fresh table is an empty main
// plus a delta, and every scan unions the two.  A RWMutex guards
// structural changes; scans take the read side.
type Table struct {
	Name string

	mu     sync.RWMutex
	schema Schema
	cols   []Column

	// sealedRows is the merge boundary: rows below it live in the main's
	// compressed segments, rows at or above it in the raw delta.
	sealedRows int
	// syn are the synopses of the main's segments that keep them, in row
	// order (synopsis.go); a merge brings them up to date.
	syn []segSynopses

	// MVCC visibility metadata.  addRows/addTS hold each unmerged
	// commit's first row and timestamp: its rows, up to the next entry's,
	// are visible only at snapshots >= the timestamp.  Both are ascending
	// (appends commit in timestamp order, and Merge preserves relative
	// row order), which is what makes RowsAsOf a binary search.
	// delRows/delTS are tombstones, kept sorted by row.
	addRows []int32
	addTS   []int64
	delRows []int32
	delTS   []int64

	// rowIDs maps physical row -> stable row id.  nil means identity;
	// Merge materializes it when compaction drops rows, so WAL records
	// and transactions keep addressing rows across merges.  Always
	// ascending, so lookup is a binary search.
	rowIDs    []int64
	nextRowID int64
	// row is ApplyInsert's one-row batch, reused: one typed slice of
	// length 1 per column, overwritten in place by each insert.
	row []any

	// appliedLSN is the highest WAL LSN already applied to this table;
	// replay skips records at or below it (idempotence).
	appliedLSN uint64
	// lastTS is the highest commit timestamp stamped into this table.
	lastTS int64
	// writeEpoch counts structural write events (appends, deletes,
	// merges).
	writeEpoch int64
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, schema: append(Schema(nil), schema...)}
	for _, d := range schema {
		t.cols = append(t.cols, newColumn(d.Type))
	}
	return t
}

func newColumn(ty Type) Column {
	switch ty {
	case Int64:
		return NewIntColumn()
	case Float64:
		return NewFloatColumn()
	case String:
		return NewStringColumn()
	}
	panic(fmt.Sprintf("colstore: unknown type %v", ty))
}

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append(Schema(nil), t.schema...)
}

func (t *Table) lenLocked() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// Rows returns the number of physical rows (main + delta, including rows
// hidden by tombstones until the next merge drops them).
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lenLocked()
}

// Bytes returns the total memory footprint of all columns and of the
// segment synopses.
func (t *Table) Bytes() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytesLocked()
}

// Column returns the named column, or an error naming the table.
func (t *Table) Column(name string) (Column, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := t.schema.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("colstore: table %s has no column %q", t.Name, name)
	}
	return t.cols[i], nil
}

// IntCol returns the named column as an IntColumn.
func (t *Table) IntCol(name string) (*IntColumn, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	ic, ok := c.(*IntColumn)
	if !ok {
		return nil, fmt.Errorf("colstore: column %s.%s is %v, not BIGINT", t.Name, name, c.Type())
	}
	return ic, nil
}

// StrCol returns the named column as a StringColumn.
func (t *Table) StrCol(name string) (*StringColumn, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	sc, ok := c.(*StringColumn)
	if !ok {
		return nil, fmt.Errorf("colstore: column %s.%s is %v, not VARCHAR", t.Name, name, c.Type())
	}
	return sc, nil
}

// SpanKeys returns the hash lookups a span-wise probe on the named
// column makes over every row: each sealed dictionary segment's distinct
// codes, each RLE segment's runs, and one per row of any other segment
// (the unsealed tail included) — a string column counts its codes; zero
// when there is no such column.
func (t *Table) SpanKeys(name string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i := t.schema.ColIndex(name)
	if i < 0 {
		return 0
	}
	c := intsOf(t.cols[i])
	if c == nil {
		return t.lenLocked()
	}
	n := 0
	for _, s := range c.segs {
		switch {
		case s.sealed && s.enc == compress.Dict:
			n += len(s.dictVals)
		case s.sealed && s.enc == compress.RLE:
			n += len(s.runs)
		default:
			n += s.length()
		}
	}
	return n
}

// checkRowLocked validates a row against the schema without applying it,
// so transactional commits can verify every operation before mutating
// anything (no torn multi-row commits).
func (t *Table) checkRowLocked(vals []any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("colstore: row has %d values, schema %s has %d", len(vals), t.Name, len(t.cols))
	}
	for i, v := range vals {
		var ok bool
		switch t.cols[i].(type) {
		case *IntColumn:
			_, ok = v.(int64)
		case *FloatColumn:
			_, ok = v.(float64)
		case *StringColumn:
			_, ok = v.(string)
		}
		if !ok {
			return fmt.Errorf("colstore: column %q wants %v, got %T", t.schema[i].Name, t.cols[i].Type(), v)
		}
	}
	return nil
}

// CheckRow validates a row against the schema without applying it.
func (t *Table) CheckRow(vals ...any) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.checkRowLocked(vals)
}

// DeltaRows returns the number of rows in the write-optimized delta:
// appended after the last Merge, stored raw, waiting for compaction.
func (t *Table) DeltaRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lenLocked() - t.sealedRows
}

// WriteEpoch returns the table's write-event counter.  A maintenance
// plan's share signature carries it (opt.PlanMerge), so a maintenance
// ticket never shares with one planned against older table state.
func (t *Table) WriteEpoch() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.writeEpoch
}

// LastTS returns the highest commit timestamp stamped into this table.
func (t *Table) LastTS() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastTS
}

// AppliedLSN returns the highest WAL LSN applied to this table.
func (t *Table) AppliedLSN() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.appliedLSN
}
