package colstore

// Test-only surface: served code decodes a column a window or a segment
// at a time, never whole.

// Values materializes the whole column.
func (c *IntColumn) Values() []int64 {
	out := make([]int64, 0, c.n)
	var buf []int64
	for _, s := range c.segs {
		out = append(out, s.values(&buf)...)
	}
	return out
}
