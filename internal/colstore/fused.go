package colstore

import (
	"repro/internal/compress"
	"repro/internal/energy"
)

// Segment iteration surface for fused operate-on-compressed pipelines.
//
// The fused kernels in internal/exec go compressed segment → selected
// codes → partial aggregate / probe keys in one pass per morsel, without
// materializing an intermediate relation.  They need to see a column's
// physical layout one window at a time: which codec each overlapped
// segment is sealed into, its RLE runs clipped to the window, its
// dictionary, or a bulk-decoded slice of its rows.  SegSpan is that
// read-only view.  Every counter a span method returns is a pure function
// of (segment, window) — never of the caller's worker count — so fused
// morsel sweeps price identically at every degree of parallelism,
// exactly like the scan kernels in segment.go.
//
// Delta tails stay uniform: an unsealed segment surfaces as an compress.Raw
// span whose Decode is a plain copy, so a fused scan remains a pure
// function of (snapshot, predicates) across the main/delta boundary.

// SegSpan is the overlap of one segment with a row window: global rows
// [A, B) of the column, all inside a single segment.
type SegSpan struct {
	A, B int               // global row range [A, B)
	Enc  compress.Encoding // physical layout of the owning segment
	seg  *intSegment
	la   int // segment-local row of A
}

// AppendSpans appends the per-segment spans overlapping rows [lo, hi) to
// out, in row order.  Unsealed segments (the delta tail) report compress.Raw.
func (c *IntColumn) AppendSpans(out []SegSpan, lo, hi int) []SegSpan {
	for si, s := range c.segs {
		start := c.starts[si]
		if start >= hi {
			break
		}
		a, b := start, start+s.length()
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a >= b {
			continue
		}
		enc := compress.Raw
		if s.sealed {
			enc = s.enc
		}
		out = append(out, SegSpan{A: a, B: b, Enc: enc, seg: s, la: a - start})
	}
	return out
}

// Runs calls fn once per RLE run overlapping the span, clipped to it, in
// row order (a, b are global rows).  The returned counters price the run
// stream — the runs touched at their wire width plus the codec's decode
// work, with NO per-row term: that is the O(runs) saving the fused
// kernels exist for.  Runs is only meaningful on compress.RLE spans; other
// encodings report zero runs and zero work.
func (sp SegSpan) Runs(fn func(v int64, a, b int)) energy.Counters {
	if sp.Enc != compress.RLE {
		return energy.Counters{}
	}
	s := sp.seg
	la, lb := sp.la, sp.la+(sp.B-sp.A)
	touched := uint64(0)
	for ri, r := range s.runs {
		rs := int(s.runStarts[ri])
		if rs >= lb {
			break
		}
		re := rs + int(r.Length)
		if re <= la {
			continue
		}
		touched++
		a, b := rs, re
		if a < la {
			a = la
		}
		if b > lb {
			b = lb
		}
		fn(r.Value, sp.A+a-la, sp.A+b-la)
	}
	return energy.Counters{
		BytesReadDRAM: touched * rleBytesPerRun,
		Instructions:  uint64(float64(touched) * compress.RLE.CostFactor()),
	}
}

// DictVals exposes the span's sorted per-segment dictionary (code =
// index) on compress.Dict spans, nil otherwise.  Read-only.
func (sp SegSpan) DictVals() []int64 {
	if sp.Enc != compress.Dict {
		return nil
	}
	return sp.seg.dictVals
}

// Codes decodes the span's rows as segment-local dictionary codes into
// out (length B-A).  Only valid on compress.Dict spans.  The packed code words
// overlapping the span stream once; unlike Decode, the dictionary itself
// is NOT streamed and no per-row indirection is priced — grouping in the
// code domain touches the dictionary only once per distinct code.
func (sp SegSpan) Codes(out []int64) energy.Counters {
	if sp.Enc != compress.Dict {
		panic("colstore: Codes on a non-dict span")
	}
	s := sp.seg
	rows := sp.B - sp.A
	if len(out) != rows {
		panic("colstore: code span length mismatch")
	}
	s.packed.Unpack(sp.la, sp.la+rows, out)
	words := uint64(s.packed.WordCount()) * uint64(rows) / uint64(s.n)
	return energy.Counters{
		BytesReadDRAM: words*8 + 8,
		Instructions:  uint64(rows) * 2,
	}
}

// Code returns global row r's segment-local dictionary code, the point
// read of Codes, priced by the caller.  Only valid on compress.Dict spans.
func (sp SegSpan) Code(r int) int64 {
	return int64(sp.seg.packed.Get(sp.la + r - sp.A))
}

// Decode widens the span's rows into out (length B-A), streaming the
// overlapped compressed representation once — the same kernel and the
// same pricing as DecodeRange, exposed span-wise so fused kernels can
// mix run iteration, code grouping, and bulk decode inside one window.
func (sp SegSpan) Decode(out []int64) energy.Counters {
	rows := sp.B - sp.A
	if len(out) != rows {
		panic("colstore: decode span length mismatch")
	}
	return sp.seg.decodeRange(sp.la, sp.la+rows, out)
}
