package colstore

import "repro/internal/energy"

// FloatColumn is a flat column of float64 measures.  Measures are summed
// and averaged, rarely filtered, so the column stays unpacked; scans are
// branch-free scalar loops.
type FloatColumn struct {
	vals []float64
}

// NewFloatColumn returns an empty float column.
func NewFloatColumn() *FloatColumn { return &FloatColumn{} }

// Len returns the number of rows.
func (c *FloatColumn) Len() int { return len(c.vals) }

// Type returns Float64.
func (c *FloatColumn) Type() Type { return Float64 }

// Bytes returns the memory footprint.
func (c *FloatColumn) Bytes() uint64 { return uint64(len(c.vals)) * 8 }

// appendBatch appends vals.
func (c *FloatColumn) appendBatch(vals any) {
	vs, _ := vals.([]float64)
	c.vals = append(c.vals, vs...)
}

// merge keeps the flat storage (nothing to re-seal, nothing streamed),
// or with rows to drop filters the kept ones into an exact slice.
func (c *FloatColumn) merge(drop []bool, kept, _ int) (Column, energy.Counters) {
	if drop == nil {
		return c, energy.Counters{}
	}
	vals := make([]float64, 0, kept)
	for i, v := range c.vals {
		if !drop[i] {
			vals = append(vals, v)
		}
	}
	n := uint64(len(c.vals))
	return &FloatColumn{vals: vals}, energy.Counters{BytesReadDRAM: n * 8, BytesWrittenDRAM: uint64(kept) * 8}
}

// Get returns row i.
func (c *FloatColumn) Get(i int) float64 { return c.vals[i] }

// Values exposes the backing slice (read-only by convention).
func (c *FloatColumn) Values() []float64 { return c.vals }
