package colstore

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

// Get returns row i.
func (c *FloatColumn) Get(i int) float64 { return c.vals[i] }

// Values exposes the backing slice (read-only by convention).
func (c *FloatColumn) Values() []float64 { return c.vals }
