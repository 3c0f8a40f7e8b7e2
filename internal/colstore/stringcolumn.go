package colstore

import "sort"

// StringColumn stores strings dictionary-encoded: an append-order
// dictionary assigns dense codes, and the codes live in an IntColumn so
// equality predicates run as packed integer scans without touching string
// data.  SealSorted re-maps codes into sorted dictionary order, enabling
// range predicates on the code domain (the order-preserving property the
// paper-era column stores rely on).
type StringColumn struct {
	codes   *IntColumn
	values  []string       // code -> string
	index   map[string]int // string -> code
	ordered bool
}

// NewStringColumn returns an empty string column.
func NewStringColumn() *StringColumn {
	return &StringColumn{codes: NewIntColumn(), index: make(map[string]int)}
}

// Len returns the number of rows.
func (c *StringColumn) Len() int { return c.codes.Len() }

// Type returns String.
func (c *StringColumn) Type() Type { return String }

// Bytes approximates the footprint: codes plus dictionary strings.
func (c *StringColumn) Bytes() uint64 {
	b := c.codes.Bytes()
	for _, s := range c.values {
		b += uint64(len(s)) + 16
	}
	return b
}

// Append adds one string, assigning a new code if unseen.
func (c *StringColumn) Append(s string) {
	code, ok := c.index[s]
	if !ok {
		code = len(c.values)
		c.values = append(c.values, s)
		c.index[s] = code
		c.ordered = false
	}
	c.codes.Append(int64(code))
}

// AppendSlice bulk-appends strings.
func (c *StringColumn) AppendSlice(vs []string) {
	for _, s := range vs {
		c.Append(s)
	}
}

// Get returns row i.
func (c *StringColumn) Get(i int) string { return c.values[c.codes.Get(i)] }

// DictSize returns the number of distinct values.
func (c *StringColumn) DictSize() int { return len(c.values) }

// Code returns the dictionary code for s, if present.
func (c *StringColumn) Code(s string) (int64, bool) {
	code, ok := c.index[s]
	return int64(code), ok
}

// Ordered reports whether codes are currently in sorted dictionary order.
func (c *StringColumn) Ordered() bool { return c.ordered }

// Dict exposes the code → string dictionary (sorted once SealSorted has
// run).  The slice is the column's live dictionary — callers must treat
// it as read-only.  Together with CodeColumn it is the key-extraction
// surface of the read path: a scanned relation carries the codes and this
// slice, joins and aggregates hash and partition the dense integer codes,
// and the dictionary is touched only to translate between dictionaries
// and to render output strings.
//
// A slice returned here stays valid, unchanged, for as long as its holder
// keeps it — past the latch it was read under, through any later write:
// Append writes only past the slice's length, and SealSorted replaces the
// slice, never rewriting it in place.
func (c *StringColumn) Dict() []string { return c.values }

// CodeColumn exposes the underlying dictionary-code column (read-only).
// Joins extract key codes from it morsel-wise with DecodeRange, so
// bit-packed code segments stream their compressed footprint instead of
// widening per row.
func (c *StringColumn) CodeColumn() *IntColumn { return c.codes }

// SealSorted re-maps every code into sorted dictionary order and seals the
// code column, enabling range predicates and packed scans.
func (c *StringColumn) SealSorted() {
	if !c.ordered {
		sorted := make([]string, len(c.values))
		copy(sorted, c.values)
		sort.Strings(sorted)
		remap := make([]int64, len(c.values))
		newIndex := make(map[string]int, len(sorted))
		for i, s := range sorted {
			newIndex[s] = i
		}
		for old, s := range c.values {
			remap[old] = int64(newIndex[s])
		}
		old := c.codes.Values()
		c.codes = NewIntColumn()
		for _, oc := range old {
			c.codes.Append(remap[oc])
		}
		c.values = sorted
		c.index = newIndex
		c.ordered = true
	}
	c.codes.Seal()
}
