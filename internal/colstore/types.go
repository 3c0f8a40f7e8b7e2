// Package colstore implements the in-memory column store at the heart of
// the engine: typed columns split into fixed-size segments with zone maps
// (per-segment min/max), advisor-chosen compressed segment layouts
// (frame-of-reference bit-packing, RLE, checkpointed varint deltas,
// sorted dictionaries — see segment.go) whose scan kernels evaluate
// predicates directly on the compressed form, and order-preserving
// dictionary encoding for strings.
//
// The layout follows the paper's "main memory is the new disk" analogy:
// segments are the blocks, zone maps are the coarse index that lets scans
// skip blocks entirely (fewer bytes touched -> less energy), and sealing a
// segment freezes it into its compressed scan-optimized form.  Energy
// charges follow the physical layout — compressed bytes streamed plus
// codec decode cost — while the logical row counters (TuplesIn/TuplesOut)
// stay storage-blind, so compressed and raw scans of the same data price
// the same rows but different joules.
package colstore

import "fmt"

// Type is the logical type of a column.
type Type int

// The supported column types.
const (
	Int64 Type = iota
	Float64
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ColumnDef declares one column of a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, d := range s {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Column is the common interface of all column implementations.
type Column interface {
	// Len returns the number of rows.
	Len() int
	// Type returns the logical type.
	Type() Type
	// Bytes returns the approximate in-memory footprint, used by the
	// storage-hierarchy experiments to price tier placement.
	Bytes() uint64
	// Storage reports the column's physical layout.
	Storage() ColumnStorage

	// appendBatch copies vals — a []int64, []float64 or []string of the
	// column's type — into the delta.
	appendBatch(vals any)
}

// SegSize is the number of rows per segment.  64 Ki rows keeps a packed
// 16-bit segment near the L2 cache size, mirroring the cache-line-as-block
// analogy from the paper.
const SegSize = 1 << 16

// rawFloor is the least capacity a new raw segment opens with, in rows.
const rawFloor = 1024
