package colstore

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/compress"
	"repro/internal/num"
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

// Seal seals every raw segment in place, each with its own profile: the
// column's part of a merge that extends the main.
func (c *IntColumn) Seal() {
	for _, s := range c.segs {
		if !s.sealed {
			p := compress.Analyze(s.raw)
			s.seal(&p)
		}
	}
}

// SealSorted re-maps the codes into sorted dictionary order and seals
// them: with new strings, the column is rebuilt — redict, then the codes
// read through a remapping cursor and re-cut on the SegSize grid — as a
// merge that re-codes a column with sealed rows rebuilds it.
func (c *StringColumn) SealSorted() {
	if !c.ordered {
		nc, remap := c.redict(nil)
		cur := cursor{src: c.codes, remap: remap}
		for nc.codes.n < c.codes.n {
			nc.codes.appendRaw(cur.next(min(SegSize, c.codes.n-nc.codes.n)))
		}
		*c = *nc
	}
	c.codes.Seal()
}

// buildSynopses replaces t's synopses with those the seal step builds
// from each sealed segment's decoded values: the synopses a merge that
// sealed the table's segments as they are would keep.
func buildSynopses(t *Table) {
	cols := slices.Clone(t.cols)
	for ci, c := range cols {
		if ic := intsOf(c); ic != nil {
			raw := NewIntColumn()
			for _, s := range ic.segs {
				vals := make([]int64, s.length())
				s.decodeRange(0, len(vals), vals)
				raw.appendRaw(vals)
			}
			cols[ci] = raw
		}
	}
	t.syn = nil
	b := newSynBuilder(t.schema)
	if grid := gridOf(cols); grid != nil {
		for si := range grid.segs {
			t.syn = b.seal(cols, si, t.syn)
		}
	}
}

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
// then checked that the columns were equally long and sealed them.  The
// segment synopses every merge now builds are built here too
// (buildSynopses), so that storage compares equal; they are checked
// against their rows on their own (CheckSynopses).  cols maps column names to []int64, []float64 or []string batches.
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
	buildSynopses(t)
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

// CheckSynopses recomputes, row by row, the synopses every sealed segment
// of the grid column that starts on the SegSize grid must keep — per
// integer or string column a complete one when it has at most
// synMaxValues distinct values in the segment's n rows, otherwise a
// partial one of exactly the values on at least n/synMaxValues rows (none
// when no value is, or when the values span 2n or more), groups in order
// of first occurrence; and the global
// one, the first complete one when there is one — and returns the first
// difference from what the table keeps, or nil.
func CheckSynopses(t *Table) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var want []segSynopses
	if grid := gridOf(t.cols); grid != nil {
		for si, s := range grid.segs {
			start, n := grid.starts[si], s.length()
			if start >= t.sealedRows || start%SegSize != 0 {
				continue
			}
			ss := segSynopses{start: start, n: n, by: make([]*Synopsis, len(t.cols))}
			for ci := range t.cols {
				s := recomputeSynopsis(t, start, n, ci)
				if s != nil && len(s.Keys) > synMaxValues {
					s = heavyGroups(s, n)
				}
				if ss.by[ci] = s; s != nil && !s.Partial && ss.global == nil {
					ss.global = s
				}
			}
			if ss.global == nil {
				ss.global = recomputeSynopsis(t, start, n, -1)
			}
			want = append(want, ss)
		}
	}
	if len(t.syn) != len(want) {
		return fmt.Errorf("%d segments keep synopses, want %d", len(t.syn), len(want))
	}
	for i := range want {
		got, w := t.syn[i], want[i]
		if got.start != w.start || got.n != w.n {
			return fmt.Errorf("synopses of rows [%d, +%d), want [%d, +%d)", got.start, got.n, w.start, w.n)
		}
		if !reflect.DeepEqual(got.global, w.global) {
			return fmt.Errorf("segment at row %d: global synopsis %+v, want %+v", w.start, *got.global, *w.global)
		}
		for ci := range w.by {
			if !reflect.DeepEqual(got.by[ci], w.by[ci]) {
				return fmt.Errorf("segment at row %d: synopsis by %s %+v, want %+v", w.start, t.schema[ci].Name, got.by[ci], w.by[ci])
			}
		}
	}
	return nil
}

// heavyGroups returns the partial synopsis of s, a synopsis of n rows:
// its groups on at least n/synMaxValues rows, in order; nil when there
// are none or its keys span 2n or more.
func heavyGroups(s *Synopsis, n int) *Synopsis {
	if uint64(slices.Max(s.Keys))-uint64(slices.Min(s.Keys)) >= 2*uint64(n) {
		return nil
	}
	h := &Synopsis{Sums: s.Sums, FSums: s.FSums, Mins: s.Mins, Maxs: s.Maxs, Partial: true}
	pick := func(xs []int64, keep []int) []int64 {
		if xs == nil {
			return nil
		}
		out := make([]int64, len(keep))
		for i, g := range keep {
			out[i] = xs[g]
		}
		return out
	}
	var keep []int
	for g, c := range s.Counts {
		if c*synMaxValues >= int64(n) {
			keep = append(keep, g)
		}
	}
	if keep == nil {
		return nil
	}
	h.Keys, h.Counts = pick(s.Keys, keep), pick(s.Counts, keep)
	for ci := range s.Sums {
		h.Sums[ci], h.Mins[ci], h.Maxs[ci] = pick(s.Sums[ci], keep), pick(s.Mins[ci], keep), pick(s.Maxs[ci], keep)
		if s.FSums[ci] != nil {
			fs := make([]num.FloatSum, len(keep))
			for i, g := range keep {
				fs[i] = s.FSums[ci][g]
			}
			h.FSums[ci] = fs
		}
	}
	return h
}

// recomputeSynopsis aggregates rows [start, start+n) grouped by column
// by (-1: one group, key 0) a row at a time; nil when by is a DOUBLE.
func recomputeSynopsis(t *Table, start, n, by int) *Synopsis {
	vals := func(ci int) []int64 {
		out := make([]int64, n)
		switch c := t.cols[ci].(type) {
		case *IntColumn:
			c.DecodeRange(start, start+n, out)
		case *StringColumn:
			c.codes.DecodeRange(start, start+n, out)
		default:
			return nil
		}
		return out
	}
	keys := make([]int64, n)
	if by >= 0 {
		if keys = vals(by); keys == nil {
			return nil
		}
	}
	s := &Synopsis{
		Sums: make([][]int64, len(t.cols)), FSums: make([][]num.FloatSum, len(t.cols)),
		Mins: make([][]int64, len(t.cols)), Maxs: make([][]int64, len(t.cols)),
	}
	group := map[int64]int{}
	gids := make([]int, n)
	for r, k := range keys {
		g, ok := group[k]
		if !ok {
			g = len(s.Keys)
			group[k] = g
			s.Keys, s.Counts = append(s.Keys, k), append(s.Counts, 0)
		}
		s.Counts[g]++
		gids[r] = g
	}
	for ci, c := range t.cols {
		var ks []int64 // the MIN/MAX keys
		switch c := c.(type) {
		case *IntColumn:
			ks = vals(ci)
			s.Sums[ci] = make([]int64, len(s.Keys))
			for r, v := range ks {
				s.Sums[ci][gids[r]] += v
			}
		case *FloatColumn:
			s.FSums[ci] = make([]num.FloatSum, len(s.Keys))
			for r := 0; r < n; r++ {
				f := c.Get(start + r)
				s.FSums[ci][gids[r]].Add(f)
				ks = append(ks, num.MinMaxKey(f))
			}
		default:
			continue
		}
		s.Mins[ci], s.Maxs[ci] = make([]int64, len(s.Keys)), make([]int64, len(s.Keys))
		seen := make([]bool, len(s.Keys))
		for r, k := range ks {
			g := gids[r]
			if !seen[g] || k < s.Mins[ci][g] {
				s.Mins[ci][g] = k
			}
			if !seen[g] || k > s.Maxs[ci][g] {
				s.Maxs[ci][g] = k
			}
			seen[g] = true
		}
	}
	return s
}
