package colstore

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"repro/internal/compress"
	"repro/internal/energy"
	"repro/internal/vec"
)

// Compressed segment layouts and their operate-on-compressed scan
// kernels.
//
// Sealing a segment runs the compress advisor over its values and
// freezes it into the codec the advisor picks: RLE runs for long-run
// data, varint deltas (with frame checkpoints) for sorted data, a sorted
// dictionary plus packed codes for low-cardinality data, and
// frame-of-reference bit-packing otherwise.  Full-width segments (a
// value range needing more than 63 bits of code) stay raw.
//
// Scans never widen a whole segment back to int64: predicates are
// evaluated directly on the compressed layout — run-at-a-time over RLE,
// boundary search over sorted deltas, code-domain rewrite over the
// dictionary, and SWAR word-parallelism over packed codes.  The zone-map
// pruning in scanrows.go runs first, so a kernel only sees segments the
// predicate can actually split ("mismatchable" segments); decode-style
// widening happens only there, and only frame-at-a-time for delta.
//
// Energy accounting follows the paper's movement-is-energy thesis: a
// kernel charges BytesReadDRAM for the compressed bytes it streams (the
// segment's stored footprint, or for delta the checkpoint spine plus the
// frames actually decoded) and Instructions for the decode/compare work,
// priced with the encoding's CostFactor where the kernel decodes
// (delta frames, RLE runs).  Charges are a pure function of (segment,
// predicate, window) — never of the worker count — so morsel-parallel
// scans price identically at every DOP.

// deltaFrame is the checkpoint pitch of compress.Delta segments: point access
// decodes at most deltaFrame-1 varints, and the boundary-search kernel
// decodes at most one frame per probed boundary.
const deltaFrame = 128

// deltaCheck anchors one frame: the value at row f*deltaFrame and the
// payload offset of the next row's varint.
type deltaCheck struct {
	off int32 // payload offset of the varint for row f*deltaFrame+1
	val int64 // value at row f*deltaFrame
}

// rleBytesPerRun prices one streamed run: an 8-byte value plus a 4-byte
// length, the wire shape of compress.Run.
const rleBytesPerRun = 12

// seal freezes the raw segment into the compressed layout the advisor
// picks from p, the profile of its values, and records its zone map.
func (s *intSegment) seal(p *compress.Profile) {
	s.min, s.max = p.Min, p.Max
	s.n = len(s.raw)
	switch compress.Choose(p.Stats) {
	case compress.RLE:
		s.sealRLE()
	case compress.Delta:
		s.sealDelta()
	case compress.Dict:
		s.sealDict(p)
	default:
		s.sealBitpack()
	}
	if s.enc != compress.Raw {
		s.raw = nil
	}
	s.sealed = true
}

// sealBitpack packs values - min at the minimal width.  A range needing
// more than 63 bits of code cannot be packed (the SWAR layout spends one
// delimiter bit per field); such degenerate segments stay raw.
func (s *intSegment) sealBitpack() {
	d := uint64(s.max) - uint64(s.min) // exact: two's-complement wrap
	width := compress.BitsFor(d)
	if width > 63 {
		s.enc = compress.Raw
		return
	}
	codes := make([]uint64, len(s.raw))
	for i, v := range s.raw {
		codes[i] = uint64(v) - uint64(s.min)
	}
	s.base = s.min
	s.packed = vec.NewPacked(codes, width)
	s.enc = compress.Bitpack
}

func (s *intSegment) sealRLE() {
	s.runs = compress.EncodeRuns(s.raw)
	s.runStarts = make([]int32, len(s.runs))
	off := int32(0)
	for i, r := range s.runs {
		s.runStarts[i] = off
		off += int32(r.Length)
	}
	s.enc = compress.RLE
}

func (s *intSegment) sealDelta() {
	payload := make([]byte, 0, len(s.raw))
	var checks []deltaCheck
	for i, v := range s.raw {
		if i%deltaFrame == 0 {
			checks = append(checks, deltaCheck{off: int32(len(payload)), val: v})
			continue
		}
		payload = binary.AppendVarint(payload, v-s.raw[i-1])
	}
	s.payload = payload
	s.checks = checks
	s.enc = compress.Delta
}

// sealDict packs each value's code in the sorted dictionary of the
// segment's distinct values, which its profile p yields.
func (s *intSegment) sealDict(p *compress.Profile) {
	dict, codes := p.Dict(s.raw)
	s.dictVals = dict
	s.packed = vec.NewPacked(codes, compress.BitsFor(uint64(len(dict)-1)))
	s.enc = compress.Dict
}

// scanBytes returns the physical bytes a scan of this segment streams:
// the compressed footprint of its sealed layout, or 8 bytes per row when
// raw.
func (s *intSegment) scanBytes() uint64 {
	switch s.enc {
	case compress.Bitpack:
		return uint64(s.packed.WordCount()) * 8
	case compress.RLE:
		return uint64(len(s.runs)) * rleBytesPerRun
	case compress.Delta:
		return uint64(len(s.payload)) + uint64(len(s.checks))*12
	case compress.Dict:
		return uint64(s.packed.WordCount())*8 + uint64(len(s.dictVals))*8
	}
	return uint64(s.length()) * 8
}

// footprintBytes returns the in-memory size including point-access
// auxiliaries (run starts, checkpoints) that scans do not stream.
func (s *intSegment) footprintBytes() uint64 {
	b := s.scanBytes()
	switch s.enc {
	case compress.RLE:
		b += uint64(len(s.runStarts)) * 4
	}
	return b
}

// get returns row i of a sealed segment (segment-local index).
func (s *intSegment) getSealed(i int) int64 {
	switch s.enc {
	case compress.Bitpack:
		return s.base + int64(s.packed.Get(i))
	case compress.RLE:
		// Last run starting at or before i.
		ri := sort.Search(len(s.runStarts), func(j int) bool { return int(s.runStarts[j]) > i }) - 1
		return s.runs[ri].Value
	case compress.Delta:
		f := i / deltaFrame
		v := s.checks[f].val
		p := s.payload[s.checks[f].off:]
		for k := f * deltaFrame; k < i; k++ {
			d, n := binary.Varint(p)
			p = p[n:]
			v += d
		}
		return v
	case compress.Dict:
		return s.dictVals[s.packed.Get(i)]
	}
	return s.raw[i]
}

// scanCompressed evaluates `value op cval` over the segment-local window
// [la, lb) of a sealed, non-raw segment, setting bit (start+i-lo) of out
// for each matching local row i — none when out is nil, which prices the
// window alone.  It returns the physical-work counters; the caller adds
// the logical row counters.
func (s *intSegment) scanCompressed(op vec.CmpOp, cval int64, la, lb, start, lo int, out *vec.Bitvec) energy.Counters {
	switch s.enc {
	case compress.RLE:
		return s.scanRLE(op, cval, la, lb, start, lo, out)
	case compress.Delta:
		return s.scanDelta(op, cval, la, lb, start, lo, out)
	case compress.Dict:
		return s.scanDict(op, cval, la, lb, start, lo, out)
	}
	return s.scanBitpack(op, cval, la, lb, start, lo, out)
}

// scanBitpack rewrites the predicate into the frame-of-reference code
// domain and runs the word-parallel SWAR kernel over the packed words.
func (s *intSegment) scanBitpack(op vec.CmpOp, cval int64, la, lb, start, lo int, out *vec.Bitvec) energy.Counters {
	// Priced per segment word: morsel windows and segments share one
	// 64 Ki-row grid (exec's MorselRows == SegSize), so a served window
	// covers its segments whole and the formula bills what runs; a window
	// that cuts a segment still pays for all of it.
	words := uint64(s.packed.WordCount())
	w := energy.Counters{
		BytesReadDRAM: words * 8,
		Instructions:  words * 6, // SWAR ops + compaction
	}
	if out == nil {
		return w
	}
	dst := start + la - lo
	if code, ok := shiftConst(op, cval, s.base); ok {
		s.packed.ScanWindow(op, code, la, lb, out, dst)
	} else if matchesAll(op, cval, s.min, s.max) {
		out.SetRange(dst, dst+lb-la)
	}
	return w
}

// scanRLE evaluates the predicate once per run and fills the bit ranges
// of matching runs — the canonical operate-on-compressed kernel: work is
// proportional to the number of runs, not the number of rows.
func (s *intSegment) scanRLE(op vec.CmpOp, cval int64, la, lb, start, lo int, out *vec.Bitvec) energy.Counters {
	w := energy.Counters{
		BytesReadDRAM: uint64(len(s.runs)) * rleBytesPerRun,
		Instructions:  uint64(float64(len(s.runs)) * compress.RLE.CostFactor()),
	}
	if out == nil {
		return w
	}
	for ri, r := range s.runs {
		rs := int(s.runStarts[ri])
		if rs >= lb {
			break
		}
		re := rs + int(r.Length)
		if re <= la || !vec.CmpInt64(op, r.Value, cval) {
			continue
		}
		a, b := rs, re
		if a < la {
			a = la
		}
		if b > lb {
			b = lb
		}
		out.SetRange(start+a-lo, start+b-lo)
	}
	return w
}

// deltaSearch returns the number of values below the bound — strictly
// below cval when strict, at most cval otherwise — plus how many varints
// it decoded: a checkpoint binary search narrows the boundary to one
// frame, and only that frame is decoded.
func (s *intSegment) deltaSearch(cval int64, strict bool) (idx, decoded int) {
	below := func(v int64) bool {
		if strict {
			return v < cval
		}
		return v <= cval
	}
	// Last frame whose start value is below the bound.
	f := sort.Search(len(s.checks), func(j int) bool { return !below(s.checks[j].val) }) - 1
	if f < 0 {
		return 0, 0
	}
	frameEnd := (f + 1) * deltaFrame
	if frameEnd > s.n {
		frameEnd = s.n
	}
	v := s.checks[f].val
	p := s.payload[s.checks[f].off:]
	for i := f*deltaFrame + 1; i < frameEnd; i++ {
		d, n := binary.Varint(p)
		p = p[n:]
		v += d
		decoded++
		if !below(v) {
			return i, decoded
		}
	}
	// The bound falls on the frame boundary (or segment end).
	return frameEnd, decoded
}

// scanDelta exploits the sortedness of delta segments: any comparison
// predicate selects at most two contiguous row intervals, found by
// boundary search over the checkpoint spine plus at most one decoded
// frame per boundary.  Only the checkpoints and those frames are
// streamed.
func (s *intSegment) scanDelta(op vec.CmpOp, cval int64, la, lb, start, lo int, out *vec.Bitvec) energy.Counters {
	var lbound, ubound, decoded int
	needLB := op == vec.LT || op == vec.GE || op == vec.EQ || op == vec.NE
	needUB := op == vec.LE || op == vec.GT || op == vec.EQ || op == vec.NE
	if needLB {
		var d int
		lbound, d = s.deltaSearch(cval, true)
		decoded += d
	}
	if needUB {
		var d int
		ubound, d = s.deltaSearch(cval, false)
		decoded += d
	}
	setRange := func(a, b int) {
		if a < la {
			a = la
		}
		if b > lb {
			b = lb
		}
		if a < b && out != nil {
			out.SetRange(start+a-lo, start+b-lo)
		}
	}
	switch op {
	case vec.LT:
		setRange(0, lbound)
	case vec.LE:
		setRange(0, ubound)
	case vec.GT:
		setRange(ubound, s.n)
	case vec.GE:
		setRange(lbound, s.n)
	case vec.EQ:
		setRange(lbound, ubound)
	case vec.NE:
		setRange(0, lbound)
		setRange(ubound, s.n)
	}
	searches := 0
	if needLB {
		searches++
	}
	if needUB {
		searches++
	}
	return energy.Counters{
		// Checkpoint spine per search plus the decoded frame bytes (a
		// varint averages under 3 bytes on delta-friendly data; price 3).
		BytesReadDRAM: uint64(searches)*uint64(len(s.checks))*12 + uint64(decoded)*3,
		Instructions: uint64(float64(decoded)*compress.Delta.CostFactor()) +
			uint64(searches)*uint64(bits.Len(uint(len(s.checks))))*4,
	}
}

// scanDict rewrites the value-domain predicate into the dictionary code
// domain (codes are assigned in sorted value order, so order compares
// survive the rewrite) and runs the word-parallel kernel over the packed
// codes; the dictionary itself is only probed by binary search.
func (s *intSegment) scanDict(op vec.CmpOp, cval int64, la, lb, start, lo int, out *vec.Bitvec) energy.Counters {
	probe := energy.Counters{
		Instructions: uint64(bits.Len(uint(len(s.dictVals)))) * 4,
		CacheMisses:  uint64(bits.Len(uint(len(s.dictVals)))) / 2,
	}
	lower := sort.Search(len(s.dictVals), func(i int) bool { return s.dictVals[i] >= cval })
	present := lower < len(s.dictVals) && s.dictVals[lower] == cval
	upper := lower
	if present {
		upper++
	}
	var codeOp vec.CmpOp
	var code uint64
	switch op {
	case vec.LT:
		codeOp, code = vec.LT, uint64(lower)
	case vec.LE:
		codeOp, code = vec.LT, uint64(upper)
	case vec.GT:
		codeOp, code = vec.GE, uint64(upper)
	case vec.GE:
		codeOp, code = vec.GE, uint64(lower)
	case vec.EQ:
		if !present {
			return probe // no row matches, no code words touched
		}
		codeOp, code = vec.EQ, uint64(lower)
	case vec.NE:
		if !present {
			if la < lb && out != nil {
				out.SetRange(start+la-lo, start+lb-lo)
			}
			return probe // every row matches, no code words touched
		}
		codeOp, code = vec.NE, uint64(lower)
	}
	if out != nil {
		s.packed.ScanWindow(codeOp, code, la, lb, out, start+la-lo)
	}
	words := uint64(s.packed.WordCount())
	probe.BytesReadDRAM += words * 8
	probe.Instructions += words * 6
	return probe
}
