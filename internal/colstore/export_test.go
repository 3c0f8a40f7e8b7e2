package colstore

import (
	"fmt"
	"reflect"
	"slices"
)

// Test-only surface: served code decodes a column a window or a segment
// at a time, never whole, and only a table's commits and merges append
// to or seal a column.

// Values materializes the whole column.
func (c *IntColumn) Values() []int64 {
	out := make([]int64, 0, c.n)
	var buf []int64
	for _, s := range c.segs {
		out = append(out, s.values(&buf)...)
	}
	return out
}

// AppendSlice appends vs to the column's raw tail.
func (c *IntColumn) AppendSlice(vs []int64) { c.appendBatch(vs) }

// AppendSlice appends vs.
func (c *FloatColumn) AppendSlice(vs []float64) { c.appendBatch(vs) }

// AppendSlice appends vs.
func (c *StringColumn) AppendSlice(vs []string) { c.appendBatch(vs) }

// Seal seals every raw segment in place: the column's part of a merge
// that drops nothing.
func (c *IntColumn) Seal() { c.merge(nil, 0, 0) }

// SealSorted re-maps the codes into sorted dictionary order and seals
// them: the column's part of a merge that drops nothing.
func (c *StringColumn) SealSorted() { c.merge(nil, 0, 0) }

// Ordered reports whether codes are currently in sorted dictionary order.
func (c *StringColumn) Ordered() bool { return c.ordered }

// The retired row-at-a-time appends: the load path of the retired
// Writer.Close, kept as an oracle of the column-wise appendBatch.

// Append adds one value, opening a 1 024-capacity segment after a sealed
// or full one.
func (c *IntColumn) Append(v int64) {
	if len(c.segs) == 0 || c.segs[len(c.segs)-1].sealed || len(c.segs[len(c.segs)-1].raw) >= SegSize {
		c.segs = append(c.segs, &intSegment{raw: make([]int64, 0, 1024)})
		c.starts = append(c.starts, c.n)
	}
	s := c.segs[len(c.segs)-1]
	s.raw = append(s.raw, v)
	c.n++
}

// Append adds one value.
func (c *FloatColumn) Append(v float64) { c.vals = append(c.vals, v) }

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

// RetiredLoad is the retired bulk load: Close on a table before its
// first Seal appended each staged column batch a value at a time, then
// the staged rows, straight into raw main segments, with no commit
// timestamp, visibility entry, row id or write epoch; the retired Seal
// then checked that the columns were equally long and sealed them.
// cols maps column names to []int64, []float64 or []string batches.
func RetiredLoad(t *Table, cols map[string]any, rows ...[]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, b := range cols {
		i := t.schema.ColIndex(name)
		if i < 0 {
			return fmt.Errorf("no column %q", name)
		}
		switch c := t.cols[i].(type) {
		case *IntColumn:
			for _, v := range b.([]int64) {
				c.Append(v)
			}
		case *FloatColumn:
			for _, v := range b.([]float64) {
				c.Append(v)
			}
		case *StringColumn:
			for _, v := range b.([]string) {
				c.Append(v)
			}
		}
	}
	for _, row := range rows {
		if err := t.checkRowLocked(row); err != nil {
			return err
		}
		for i, v := range row {
			switch c := t.cols[i].(type) {
			case *IntColumn:
				c.Append(v.(int64))
			case *FloatColumn:
				c.Append(v.(float64))
			case *StringColumn:
				c.Append(v.(string))
			}
		}
	}
	n := t.lenLocked()
	for i, c := range t.cols {
		if c.Len() != n {
			return fmt.Errorf("column %q has %d rows, expected %d", t.schema[i].Name, c.Len(), n)
		}
		switch cc := c.(type) {
		case *IntColumn:
			cc.Seal()
		case *StringColumn:
			cc.SealSorted()
		}
	}
	t.sealedRows = n
	return nil
}

// DiffLayout returns the first difference between two tables' stored
// bytes — storage, then per column its segment boundaries, each
// segment's encoding, zone map and dictionary, the values and the
// whole layout (strings: the dictionary, its index and order first) —
// or nil.
func DiffLayout(got, want *Table) error {
	if g, w := got.Storage(), want.Storage(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("storage %+v, want %+v", g, w)
	}
	for ci, c := range got.cols {
		var err error
		switch g := c.(type) {
		case *IntColumn:
			err = sameIntColumn(g, want.cols[ci].(*IntColumn))
		case *FloatColumn:
			if !slices.Equal(g.Values(), want.cols[ci].(*FloatColumn).Values()) {
				err = fmt.Errorf("values differ")
			}
		case *StringColumn:
			w := want.cols[ci].(*StringColumn)
			switch {
			case !reflect.DeepEqual(g.Dict(), w.Dict()):
				err = fmt.Errorf("dictionary %q, want %q", g.Dict(), w.Dict())
			case g.ordered != w.ordered || !reflect.DeepEqual(g.index, w.index):
				err = fmt.Errorf("ordered %v, want %v (or the index differs)", g.ordered, w.ordered)
			default:
				err = sameIntColumn(g.codes, w.codes)
			}
		}
		if err != nil {
			return fmt.Errorf("column %s: %v", got.schema[ci].Name, err)
		}
	}
	return nil
}

// sameIntColumn reports the first difference between two integer
// columns: segment boundaries, each segment's encoding, zone map and
// dictionary, the values, then anything else in the layout.
func sameIntColumn(got, want *IntColumn) error {
	if !reflect.DeepEqual(got.starts, want.starts) || got.n != want.n {
		return fmt.Errorf("segments start at %v (%d rows), want %v (%d rows)", got.starts, got.n, want.starts, want.n)
	}
	for i, g := range got.segs {
		w := want.segs[i]
		if g.sealed != w.sealed || g.enc != w.enc || g.min != w.min || g.max != w.max || g.n != w.n {
			return fmt.Errorf("segment %d: sealed %v %v [%d,%d] n=%d, want sealed %v %v [%d,%d] n=%d",
				i, g.sealed, g.enc, g.min, g.max, g.n, w.sealed, w.enc, w.min, w.max, w.n)
		}
		if !reflect.DeepEqual(g.dictVals, w.dictVals) {
			return fmt.Errorf("segment %d: dictionary differs", i)
		}
	}
	if !reflect.DeepEqual(got.Values(), want.Values()) {
		return fmt.Errorf("values differ")
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("layouts differ")
	}
	return nil
}
