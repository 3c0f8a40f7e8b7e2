package colstore

import (
	"encoding/binary"

	"repro/internal/compress"
	"repro/internal/energy"
)

// Bulk range decoding: the join pipeline's key-extraction path.  A join
// needs its key column widened to int64 for hashing and partitioning,
// but widening through per-row Get is disastrous on sealed layouts (a
// delta point access decodes up to deltaFrame-1 varints), and widening
// the whole column at once ignores the morsel grid the parallel
// operators work in.  DecodeRange decodes exactly one row window,
// segment at a time, streaming each segment's compressed representation
// once — so morsel-parallel key extraction touches every compressed
// byte exactly once per table, whatever the degree of parallelism.

// DecodeRange decodes rows [lo, hi) into out (length hi-lo) and returns
// the physical work: the compressed bytes streamed for the overlapped
// slice of each sealed segment plus the codec's decode instructions,
// priced like the scan kernels in segment.go.  The charge is a pure
// function of (column, lo, hi), never of the caller's worker count.
func (c *IntColumn) DecodeRange(lo, hi int, out []int64) energy.Counters {
	if len(out) != hi-lo {
		panic("colstore: decode range length mismatch")
	}
	var ctr energy.Counters
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
		ctr.Add(s.decodeRange(la, lb, out[a-lo:b-lo]))
	}
	return ctr
}

// GatherRows writes row lo+rows[i] into out[i] (len(out) == len(rows)):
// the sparse counterpart of DecodeRange, for a partial selection of a
// window.  It keeps a cursor instead of paying Get's search per row: the
// segment of the previous row is reused while rows stay inside it, and in
// a delta segment decoding continues forward from the previous row,
// restarting at the frame checkpoint only on a new frame or a backward
// row — an ascending selection decodes each frame's varints at most once,
// where Get decodes up to deltaFrame-1 of them per row.  Callers price the
// gather by its row count, so it returns no counters.
func (c *IntColumn) GatherRows(lo int, rows []int32, out []int64) {
	if len(out) != len(rows) {
		panic("colstore: gather length mismatch")
	}
	var s *intSegment
	start, end := 0, 0
	var cur deltaCursor
	for i, r := range rows {
		row := lo + int(r)
		if row < start || row >= end {
			si := c.segAt(row)
			s, start, end = c.segs[si], c.starts[si], c.starts[si]+c.segs[si].length()
			cur = deltaCursor{f: -1}
		}
		if s.sealed && s.enc == compress.Delta {
			out[i] = cur.get(s, row-start)
		} else {
			out[i] = s.get(row - start)
		}
	}
}

// deltaCursor is GatherRows' position inside one delta segment: value v
// at segment-local row k of frame f, p the payload from row k+1 on.
type deltaCursor struct {
	f, k int
	v    int64
	p    []byte
}

// get returns segment-local row j of the delta segment s, decoding
// forward from the cursor when j lies ahead of it in the same frame.
func (cur *deltaCursor) get(s *intSegment, j int) int64 {
	if f := j / deltaFrame; f != cur.f || j < cur.k {
		*cur = deltaCursor{f: f, k: f * deltaFrame, v: s.checks[f].val, p: s.payload[s.checks[f].off:]}
	}
	for ; cur.k < j; cur.k++ {
		d, n := binary.Varint(cur.p)
		cur.p = cur.p[n:]
		cur.v += d
	}
	return cur.v
}

// decodeRange widens segment-local rows [la, lb) into out (len lb-la).
func (s *intSegment) decodeRange(la, lb int, out []int64) energy.Counters {
	rows := uint64(lb - la)
	if !s.sealed || s.enc == compress.Raw {
		copy(out, s.raw[la:lb])
		return energy.Counters{BytesReadDRAM: rows * 8, Instructions: rows}
	}
	switch s.enc {
	case compress.RLE:
		return s.decodeRLE(la, lb, out)
	case compress.Delta:
		return s.decodeDelta(la, lb, out)
	}
	// compress.Bitpack and compress.Dict share the packed-code layout; dict adds one
	// dictionary indirection per row.
	s.packed.Unpack(la, lb, out)
	if s.enc == compress.Dict {
		for i, code := range out {
			out[i] = s.dictVals[code]
		}
	} else {
		for i := range out {
			out[i] += s.base
		}
	}
	// The packed words overlapping the window are streamed once; the
	// proration is integer math on (segment, window) alone.
	words := uint64(s.packed.WordCount()) * rows / uint64(s.n)
	ctr := energy.Counters{BytesReadDRAM: words*8 + 8, Instructions: rows * 2}
	if s.enc == compress.Dict {
		// The dictionary streams once per window and stays cache-resident
		// for the per-row indirections (same model as scanBytes).
		ctr.BytesReadDRAM += uint64(len(s.dictVals)) * 8
		ctr.CacheMisses += rows / 8
	}
	return ctr
}

// decodeRLE widens the runs overlapping [la, lb).
func (s *intSegment) decodeRLE(la, lb int, out []int64) energy.Counters {
	runs := uint64(0)
	for ri, r := range s.runs {
		rs := int(s.runStarts[ri])
		if rs >= lb {
			break
		}
		re := rs + int(r.Length)
		if re <= la {
			continue
		}
		runs++
		a, b := rs, re
		if a < la {
			a = la
		}
		if b > lb {
			b = lb
		}
		for i := a; i < b; i++ {
			out[i-la] = r.Value
		}
	}
	return energy.Counters{
		BytesReadDRAM: runs * rleBytesPerRun,
		Instructions:  uint64(float64(runs)*compress.RLE.CostFactor()) + uint64(lb-la),
	}
}

// decodeDelta walks the varint payload from the checkpoint frame
// containing la up to lb, streaming only the frames the window overlaps.
func (s *intSegment) decodeDelta(la, lb int, out []int64) energy.Counters {
	f := la / deltaFrame
	v := s.checks[f].val
	p := s.payload[s.checks[f].off:]
	payloadStart := len(p)
	decoded := 0
	for i := f * deltaFrame; i < lb; i++ {
		if i > f*deltaFrame {
			if i%deltaFrame == 0 {
				v = s.checks[i/deltaFrame].val
			} else {
				d, n := binary.Varint(p)
				p = p[n:]
				v += d
				decoded++
			}
		}
		if i >= la {
			out[i-la] = v
		}
	}
	frames := uint64((lb-1)/deltaFrame-f) + 1
	return energy.Counters{
		BytesReadDRAM: frames*12 + uint64(payloadStart-len(p)),
		Instructions:  uint64(float64(decoded) * compress.Delta.CostFactor()),
	}
}
