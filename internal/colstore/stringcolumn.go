package colstore

import (
	"slices"
	"strings"
)

// StringColumn stores strings dictionary-encoded: an append-order
// dictionary assigns dense codes, and the codes live in an IntColumn so
// equality predicates run as packed integer scans without touching string
// data.  A merge re-maps codes into sorted dictionary order, enabling
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

// appendBatch interns vals, assigning each unseen string the next
// code, and appends their codes, a stack buffer's worth at a time.  A
// batch repeats few strings many times (a load's region or status), so
// each string is first looked for in a small memo slotted by its length
// and end bytes — one compare, and the same string's bytes are not even
// read — and the dictionary's index is consulted only on a miss.
func (c *StringColumn) appendBatch(vals any) {
	vs, _ := vals.([]string)
	var codes [64]int64
	var memo [internSlots]struct {
		s    string
		code int // the string's code + 1; 0 = empty
	}
	for len(vs) > 0 {
		n := min(len(vs), len(codes))
		for i, s := range vs[:n] {
			m := &memo[internSlot(s)]
			if m.code == 0 || m.s != s {
				code, ok := c.index[s]
				if !ok {
					code = len(c.values)
					c.values = append(c.values, s)
					c.index[s] = code
					c.ordered = false
				}
				m.s, m.code = s, code+1
			}
			codes[i] = int64(m.code - 1)
		}
		c.codes.appendInts(codes[:n], len(vs))
		vs = vs[n:]
	}
}

// internSlots is the size of appendBatch's memo.
const internSlots = 32

// internSlot is s's slot in appendBatch's memo: a multiplicative hash of
// its length and its first, middle and last bytes.
func internSlot(s string) int {
	h := uint32(len(s))
	if len(s) > 0 {
		h = h<<24 ^ uint32(s[0])<<16 ^ uint32(s[len(s)/2])<<8 ^ uint32(s[len(s)-1])
	}
	return int(h * 0x9E3779B1 >> (32 - 5))
}

// Get returns row i.
func (c *StringColumn) Get(i int) string { return c.values[c.codes.Get(i)] }

// DictSize returns the number of distinct values.
func (c *StringColumn) DictSize() int { return len(c.values) }

// Dict exposes the code → string dictionary (sorted once a merge has
// run).  The slice is the column's live dictionary — callers must treat
// it as read-only.  Together with CodeColumn it is the key-extraction
// surface of the read path: a scanned relation carries the codes and this
// slice, joins and aggregates hash and partition the dense integer codes,
// and the dictionary is touched only to translate between dictionaries
// and to render output strings.
//
// A slice returned here stays valid, unchanged, for as long as its holder
// keeps it — past the latch it was read under, through any later write:
// an append writes only past the slice's length, and a merge replaces the
// slice, never rewriting it in place.
func (c *StringColumn) Dict() []string { return c.values }

// Code returns s's code, -1 when the dictionary does not hold it.
func (c *StringColumn) Code(s string) int64 {
	if cd, ok := c.index[s]; ok {
		return int64(cd)
	}
	return -1
}

// CodeColumn exposes the underlying dictionary-code column (read-only).
// Joins extract key codes from it morsel-wise with DecodeRange, so
// bit-packed code segments stream their compressed footprint instead of
// widening per row.
func (c *StringColumn) CodeColumn() *IntColumn { return c.codes }

// redict returns an empty column whose dictionary holds, in sorted
// order, the values c's rows whose drop bit is clear (every row when drop
// is nil) use — a new slice, so a Dict() a reader holds is never
// rewritten — and remap, each of c's codes' code there.
//
// The used codes come first from every segment that loses no row, from
// what its layout states (intSegment.stated), decoding only a layout that
// states nothing.  A segment that loses a row is decoded only when it
// states a code no such segment marked.
func (c *StringColumn) redict(drop []bool) (*StringColumn, []int64) {
	used := make([]bool, len(c.values))
	var buf []int64
	var losing []int // the segments that lose a row
	for si, s := range c.codes.segs {
		if start := c.codes.starts[si]; drop != nil && slices.Contains(drop[start:start+s.length()], true) {
			losing = append(losing, si)
			continue
		}
		vals, ok := s.stated()
		if !ok {
			vals = s.values(&buf)
		}
		for _, code := range vals {
			used[code] = true
		}
	}
	for _, si := range losing {
		s, start := c.codes.segs[si], c.codes.starts[si]
		if vals, ok := s.stated(); ok && !slices.ContainsFunc(vals, func(code int64) bool { return !used[code] }) {
			continue // whatever it keeps is marked
		}
		for j, code := range s.values(&buf) {
			if !drop[start+j] {
				used[code] = true
			}
		}
	}
	order := make([]int, len(c.values)) // old codes in string order
	for i := range order {
		order[i] = i
	}
	if !c.ordered {
		slices.SortFunc(order, func(a, b int) int { return strings.Compare(c.values[a], c.values[b]) })
	}
	remap := make([]int64, len(c.values))
	values := []string{}
	index := make(map[string]int)
	for _, old := range order {
		if used[old] {
			remap[old] = int64(len(values))
			index[c.values[old]] = len(values)
			values = append(values, c.values[old])
		}
	}
	return &StringColumn{codes: NewIntColumn(), values: values, index: index, ordered: true}, remap
}
