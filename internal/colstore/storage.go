package colstore

import (
	"fmt"

	"repro/internal/compress"
)

// Storage reporting: how many bytes each column would occupy raw versus
// what its sealed segments actually store, and which codec each segment
// landed on.  The optimizer surfaces these numbers in PlanInfo (per-table
// compression ratio, estimated scan bytes), and the E19 experiment uses
// them to attribute energy savings to the storage format.

// ColumnStorage summarizes the physical layout of one column.
type ColumnStorage struct {
	Name     string
	RawBytes uint64 // footprint of the uncompressed representation
	// StoredBytes is what a full scan streams: the compressed segment
	// footprints (plus the dictionary for string columns).
	StoredBytes uint64
	Segments    map[string]int // encoding name -> sealed segment count
}

// Storage reports the column's physical layout.
func (c *IntColumn) Storage() ColumnStorage {
	cs := ColumnStorage{RawBytes: uint64(c.n) * 8, Segments: map[string]int{}}
	for _, s := range c.segs {
		if s.sealed {
			cs.StoredBytes += s.scanBytes()
			cs.Segments[s.enc.String()]++
		} else {
			cs.StoredBytes += uint64(len(s.raw)) * 8
			cs.Segments[compress.Raw.String()]++
		}
	}
	return cs
}

// Storage reports the column's physical layout (floats stay unpacked).
func (c *FloatColumn) Storage() ColumnStorage {
	b := uint64(len(c.vals)) * 8
	return ColumnStorage{RawBytes: b, StoredBytes: b, Segments: map[string]int{"raw": 1}}
}

// Storage reports the column's physical layout: the code column's
// segments plus the dictionary strings (identical raw and stored — the
// dictionary is the string store either way).
func (c *StringColumn) Storage() ColumnStorage {
	cs := c.codes.Storage()
	var dict uint64
	for _, s := range c.values {
		dict += uint64(len(s)) + 16
	}
	cs.RawBytes += dict
	cs.StoredBytes += dict
	return cs
}

// TableStorage aggregates per-column storage for one table.
type TableStorage struct {
	RawBytes uint64
	// StoredBytes is the columns' stored bytes plus SynopsisBytes, the
	// segment synopses' (synopsis.go), which no column reports.
	StoredBytes   uint64
	SynopsisBytes uint64
	Cols          []ColumnStorage
}

// Ratio returns StoredBytes/RawBytes for the whole table.
func (s TableStorage) Ratio() float64 {
	if s.RawBytes == 0 {
		return 1
	}
	return float64(s.StoredBytes) / float64(s.RawBytes)
}

// String renders the aggregate as "stored/raw (ratio)".
func (s TableStorage) String() string {
	return fmt.Sprintf("%d/%d bytes (%.2fx)", s.StoredBytes, s.RawBytes, s.Ratio())
}

// Storage reports the table's physical layout column by column.
func (t *Table) Storage() TableStorage {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ts TableStorage
	for i, c := range t.cols {
		cs := c.Storage()
		cs.Name = t.schema[i].Name
		ts.RawBytes += cs.RawBytes
		ts.StoredBytes += cs.StoredBytes
		ts.Cols = append(ts.Cols, cs)
	}
	ts.SynopsisBytes = t.synBytesLocked()
	ts.StoredBytes += ts.SynopsisBytes
	return ts
}
