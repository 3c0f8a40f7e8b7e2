package colstore

import (
	"sort"

	"repro/internal/compress"
	"repro/internal/energy"
	"repro/internal/vec"
)

// Row-range ("morsel") scan kernels.  ScanRows evaluates a predicate over
// the row window [lo, hi) only, setting bit i of out for matching row
// lo+i.  The morsel-driven executor in internal/exec fans these out to a
// worker pool; each worker touches only the segments its morsel overlaps,
// so parallel scans keep the zone-map pruning and word-parallel kernels
// of the whole-column Scan paths.
//
// Counter accounting is a function of the window grid alone — never of
// which worker ran the window or how many workers there were — so a
// morsel decomposition prices identically at any degree of parallelism.

// ScanRows evaluates `value op c` over rows [lo, hi) into out (length
// hi-lo).  Sealed segments use zone-map pruning plus the per-codec
// operate-on-compressed kernels (segment.go); unsealed segments use the
// branch-free scalar kernel on the overlapping raw slice.
func (c *IntColumn) ScanRows(op vec.CmpOp, cval int64, lo, hi int, out *vec.Bitvec) energy.Counters {
	ctr, _ := c.scanRows(op, cval, lo, hi, out)
	return ctr
}

// scanRows is the shared kernel behind Scan (whole column, with stats)
// and ScanRows (morsel window).
func (c *IntColumn) scanRows(op vec.CmpOp, cval int64, lo, hi int, out *vec.Bitvec) (energy.Counters, ScanStats) {
	if out.Len() != hi-lo {
		panic("colstore: scan result length mismatch")
	}
	var ctr energy.Counters
	var st ScanStats
	st.SegmentsTotal = len(c.segs)
	for si, s := range c.segs {
		start := c.starts[si]
		if start >= hi {
			break
		}
		n := s.length()
		a, b := start, start+n
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a >= b {
			continue
		}
		la, lb := a-start, b-start // window in segment-local coordinates
		rows := uint64(b - a)
		// TuplesIn counts the logical rows the predicate covers — a
		// property of the window, not of the storage format or of how
		// much physical data the zone maps let the scan skip — so raw
		// and compressed scans charge identical row counters.
		ctr.TuplesIn += rows
		switch {
		case s.sealed && zonePrune(op, cval, s.min, s.max):
			// Zone map proves no row matches: nothing touched.
			st.SegmentsSkipped++
		case s.sealed && zoneFull(op, cval, s.min, s.max):
			// Every row matches: set bits without touching data.
			out.SetRange(a-lo, b-lo)
			st.SegmentsSkipped++
			ctr.Instructions += rows / 8
		case s.sealed && s.enc != compress.Raw:
			// Mismatchable segment: evaluate directly on the compressed
			// layout (segment.go), charging the compressed bytes
			// streamed plus the codec's decode work.
			st.SegmentsPacked++
			ctr.Add(s.scanCompressed(op, cval, la, lb, start, lo, out))
		default:
			st.SegmentsRaw++
			vec.ScanPredicatedAt(s.raw[la:lb], op, cval, out, a-lo)
			ctr.BytesReadDRAM += rows * 8
			ctr.Instructions += rows * 3
		}
	}
	ctr.TuplesOut = uint64(out.Count())
	return ctr, st
}

// ScanRows evaluates `value op x` over rows [lo, hi) into out (length
// hi-lo) with the branch-free scalar kernel BIGINT raw segments share.  A
// NaN row matches only NE.
func (c *FloatColumn) ScanRows(op vec.CmpOp, x float64, lo, hi int, out *vec.Bitvec) energy.Counters {
	vec.ScanPredicated(c.vals[lo:hi], op, x, out)
	return energy.Counters{
		BytesReadDRAM: uint64(hi-lo) * 8,
		Instructions:  uint64(hi-lo) * 3,
		TuplesIn:      uint64(hi - lo),
		TuplesOut:     uint64(out.Count()),
	}
}

// ScanRows evaluates `value op s` (string comparison semantics) over rows
// [lo, hi) into out (length hi-lo).  On an order-preserving (SealSorted)
// dictionary every operator maps onto a packed integer scan in the code
// domain; unsorted dictionaries fall back to per-row string comparison.
func (c *StringColumn) ScanRows(op vec.CmpOp, s string, lo, hi int, out *vec.Bitvec) energy.Counters {
	if out.Len() != hi-lo {
		panic("colstore: scan result length mismatch")
	}
	switch code, codeOp, mode := c.codePredicate(op, s); mode {
	case codeScan:
		return c.codes.ScanRows(codeOp, code, lo, hi, out)
	case codeAll:
		out.SetRange(0, hi-lo)
		return energy.Counters{TuplesIn: uint64(hi - lo), TuplesOut: uint64(hi - lo)}
	case codeNone:
		return energy.Counters{TuplesIn: uint64(hi - lo)}
	}
	// Unsorted dictionary: codes do not preserve string order.
	var ctr energy.Counters
	for i := lo; i < hi; i++ {
		v := c.Get(i)
		var m bool
		switch op {
		case vec.LT:
			m = v < s
		case vec.LE:
			m = v <= s
		case vec.GT:
			m = v > s
		case vec.GE:
			m = v >= s
		case vec.EQ:
			m = v == s
		case vec.NE:
			m = v != s
		}
		if m {
			out.Set(i - lo)
		}
	}
	ctr.TuplesIn = uint64(hi - lo)
	ctr.Instructions = uint64(hi-lo) * 12 // string compares are pricey
	ctr.CacheMisses = uint64(hi-lo) / 4
	ctr.TuplesOut = uint64(out.Count())
	return ctr
}

// codeMode is the outcome of rewriting a string predicate into the
// dictionary code domain.
type codeMode int

const (
	codeFallback codeMode = iota // rewrite impossible: compare strings per row
	codeScan                     // scan codes with the returned op/constant
	codeAll                      // every row matches, no data inspection
	codeNone                     // no row matches, no data inspection
)

// codePredicate rewrites a string predicate into the dictionary code
// domain.  Equality rewrites on any dictionary (codes identify strings
// even in append order); order comparisons need the SealSorted
// order-preserving dictionary.
func (c *StringColumn) codePredicate(op vec.CmpOp, s string) (code int64, codeOp vec.CmpOp, mode codeMode) {
	if op == vec.EQ || op == vec.NE {
		cd := c.Code(s)
		if cd < 0 {
			// Unknown string: EQ matches nothing, NE matches everything.
			if op == vec.NE {
				return 0, op, codeAll
			}
			return 0, op, codeNone
		}
		return cd, op, codeScan
	}
	if !c.ordered {
		return 0, op, codeFallback
	}
	// values is sorted: lower = #values < s, upper = #values <= s.
	lower := int64(sort.SearchStrings(c.values, s))
	upper := lower
	if int(lower) < len(c.values) && c.values[lower] == s {
		upper++
	}
	switch op {
	case vec.LT:
		return lower, vec.LT, codeScan
	case vec.GE:
		return lower, vec.GE, codeScan
	case vec.LE:
		return upper, vec.LT, codeScan
	case vec.GT:
		return upper, vec.GE, codeScan
	}
	return 0, op, codeFallback
}
