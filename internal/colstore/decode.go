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

// decodeRange widens segment-local rows [la, lb) into out (len lb-la).
func (s *intSegment) decodeRange(la, lb int, out []int64) energy.Counters {
	rows := uint64(lb - la)
	if !s.sealed || s.enc == EncRaw {
		copy(out, s.raw[la:lb])
		return energy.Counters{BytesReadDRAM: rows * 8, Instructions: rows}
	}
	switch s.enc {
	case EncRLE:
		return s.decodeRLE(la, lb, out)
	case EncDelta:
		return s.decodeDelta(la, lb, out)
	}
	// EncBitpack and EncDict share the packed-code layout; dict adds one
	// dictionary indirection per row.
	s.packed.Unpack(la, lb, out)
	if s.enc == EncDict {
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
	if s.enc == EncDict {
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
