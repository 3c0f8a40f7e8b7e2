package colstore

import (
	"repro/internal/compress"
	"repro/internal/vec"
)

// intSegment is one block of an IntColumn.  Unsealed segments hold raw
// values; seal (segment.go) runs the compress advisor over the block and
// freezes it into the advisor-chosen compressed layout — bit-packed
// frame-of-reference codes, RLE runs, checkpointed varint deltas, or a
// sorted dictionary with packed codes — recording its zone map either
// way.  Scans operate directly on the compressed layout (see the kernels
// in segment.go).
type intSegment struct {
	raw []int64           // nil once sealed (kept only for compress.Raw fallback)
	enc compress.Encoding // layout of the sealed representation

	// compress.Bitpack: frame-of-reference codes; compress.Dict reuses packed for
	// its dictionary codes.
	packed *vec.Packed
	base   int64 // frame of reference for bitpack codes

	// compress.RLE.
	runs      []compress.Run
	runStarts []int32 // row offset of each run, for point access

	// compress.Delta.
	payload []byte
	checks  []deltaCheck

	// compress.Dict.
	dictVals []int64 // sorted distinct values; code = index

	n      int // rows once sealed
	min    int64
	max    int64
	sealed bool
}

func (s *intSegment) length() int {
	if s.sealed {
		return s.n
	}
	return len(s.raw)
}

func (s *intSegment) get(i int) int64 {
	if s.sealed {
		return s.getSealed(i)
	}
	return s.raw[i]
}

// IntColumn is a segmented column of int64 values.
type IntColumn struct {
	segs   []*intSegment
	starts []int // logical row offset of each segment
	n      int
}

// NewIntColumn returns an empty integer column.
func NewIntColumn() *IntColumn { return &IntColumn{} }

// Len returns the number of rows.
func (c *IntColumn) Len() int { return c.n }

// Type returns Int64.
func (c *IntColumn) Type() Type { return Int64 }

// Bytes returns the approximate memory footprint.
func (c *IntColumn) Bytes() uint64 {
	var b uint64
	for _, s := range c.segs {
		if s.sealed {
			b += s.footprintBytes()
		} else {
			b += uint64(len(s.raw)) * 8
		}
	}
	return b
}

// Append adds one value.
func (c *IntColumn) Append(v int64) {
	if len(c.segs) == 0 || c.segs[len(c.segs)-1].sealed || len(c.segs[len(c.segs)-1].raw) >= SegSize {
		c.segs = append(c.segs, &intSegment{raw: make([]int64, 0, 1024)})
		c.starts = append(c.starts, c.n)
	}
	s := c.segs[len(c.segs)-1]
	s.raw = append(s.raw, v)
	c.n++
}

// AppendSlice bulk-appends values.
func (c *IntColumn) AppendSlice(vs []int64) {
	for _, v := range vs {
		c.Append(v)
	}
}

// Seal freezes every segment into its advisor-chosen compressed layout.
// Sealed columns remain appendable: new values open a fresh raw segment.
func (c *IntColumn) Seal() {
	for _, s := range c.segs {
		s.seal()
	}
}

// Get returns row i.  Segments may have irregular lengths (sealing opens a
// fresh segment), so the segment is located by binary search over start
// offsets.
func (c *IntColumn) Get(i int) int64 {
	si := c.segAt(i)
	return c.segs[si].get(i - c.starts[si])
}

// segAt returns the index of the segment holding row i.
func (c *IntColumn) segAt(i int) int {
	lo, hi := 0, len(c.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.starts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Values materializes the whole column (bulk decode).
func (c *IntColumn) Values() []int64 {
	out := make([]int64, 0, c.n)
	for _, s := range c.segs {
		if s.sealed {
			out = s.appendValues(out)
		} else {
			out = append(out, s.raw...)
		}
	}
	return out
}

// ScanStats describes what a scan touched, for EXPLAIN output and the
// experiment tables.
type ScanStats struct {
	SegmentsTotal   int
	SegmentsSkipped int // pruned by zone map
	SegmentsPacked  int // scanned operate-on-compressed
	SegmentsRaw     int // scanned tuple-at-a-time
}

// shiftConst maps a predicate constant from the value domain into the
// code domain (v - base).  Returns ok=false when the shifted constant is
// below zero, i.e. the predicate needs no data inspection.
func shiftConst(op vec.CmpOp, c, base int64) (uint64, bool) {
	d := c - base
	if d >= 0 {
		return uint64(d), true
	}
	return 0, false
}

// matchesAll reports whether, for a constant below the segment base, the
// predicate trivially matches every row.
func matchesAll(op vec.CmpOp, c, min, max int64) bool {
	switch op {
	case vec.GT, vec.GE, vec.NE:
		return c < min
	}
	return false
}

// zonePrune reports whether the zone map proves no row in [min,max] can
// match.
func zonePrune(op vec.CmpOp, c, min, max int64) bool {
	switch op {
	case vec.LT:
		return min >= c
	case vec.LE:
		return min > c
	case vec.GT:
		return max <= c
	case vec.GE:
		return max < c
	case vec.EQ:
		return c < min || c > max
	case vec.NE:
		return min == c && max == c
	}
	return false
}

// zoneFull reports whether the zone map proves every row matches.
func zoneFull(op vec.CmpOp, c, min, max int64) bool {
	switch op {
	case vec.LT:
		return max < c
	case vec.LE:
		return max <= c
	case vec.GT:
		return min > c
	case vec.GE:
		return min >= c
	case vec.EQ:
		return min == c && max == c
	case vec.NE:
		return c < min || c > max
	}
	return false
}

// MinMax returns the column-wide zone map.
func (c *IntColumn) MinMax() (min, max int64, ok bool) {
	if c.n == 0 {
		return 0, 0, false
	}
	first := true
	for _, s := range c.segs {
		var lo, hi int64
		if s.sealed {
			lo, hi = s.min, s.max
		} else {
			if len(s.raw) == 0 {
				continue
			}
			lo, hi = s.raw[0], s.raw[0]
			for _, v := range s.raw {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		if first {
			min, max, first = lo, hi, false
		} else {
			if lo < min {
				min = lo
			}
			if hi > max {
				max = hi
			}
		}
	}
	return min, max, !first
}
