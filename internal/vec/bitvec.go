// Package vec provides bit vectors and word-parallel packed scans — the
// repository's substitute for the SIMD-vectorized scans the paper assumes.
//
// Go exposes no SIMD intrinsics, so data-level parallelism is expressed
// with SIMD-within-a-register (SWAR) techniques in the style of
// BitWeaving/H: k-bit column codes are packed into 64-bit words with one
// delimiter bit per code, and comparison predicates over all codes in a
// word are evaluated with a handful of arithmetic/logical instructions and
// no per-tuple branches.  Results are bit vectors that combine with
// boolean algebra and convert to selection lists.
//
// Each layout has one kernel entry that scans a window of values into a
// caller's bit vector at any bit offset, ORing matches in and leaving
// every other bit alone: Packed.ScanWindow (every comparison is a band of
// the code domain, NE its complement) and ScanPredicatedAt (raw BIGINT or
// DOUBLE values).  The whole-vector Scan and ScanPredicated
// are its zero-offset case, so a storage layer writes each segment's
// matches straight into a morsel's selection — no scratch vector, no
// per-match transfer.  The packed kernel costs a few word operations per
// 64-bit word and nothing per code: a word's delimiter bits are gathered
// by one multiply when the field is wider than the codes per word (width
// ≥ 8), in log2(codes per word) shift-and-mask steps below that, and
// appended to an output register that is stored once per 64 bits.
package vec

import "math/bits"

// Bitvec is a fixed-length vector of bits, the canonical intermediate
// result of predicate evaluation.
type Bitvec struct {
	n     int
	words []uint64
}

// NewBitvec returns an all-zero bit vector of length n.
func NewBitvec(n int) *Bitvec {
	return &Bitvec{n: n, words: make([]uint64, (n+63)/64)}
}

// Resize makes b an all-zero vector of n bits, reusing its words when
// they suffice — one scratch vector serves window after window.
func (b *Bitvec) Resize(n int) {
	if w := (n + 63) / 64; cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	b.n = n
}

// Len returns the number of bits.
func (b *Bitvec) Len() int { return b.n }

// Words exposes the underlying words (the last word's tail bits beyond
// Len are always zero).
//
//lint:allow reach: experiments/xpu.Vertical writes its scan result word at a time (E15, BenchmarkLayouts)
func (b *Bitvec) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitvec) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitvec) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// SetAll sets every bit in [0, Len).
func (b *Bitvec) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.maskTail()
}

// SetRange sets every bit in [lo, hi), word-at-a-time — the bulk fill
// behind run-length and boundary-search scan kernels, whose matches are
// contiguous row intervals (64 bits per store instead of one).
func (b *Bitvec) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		b.words[lw] |= loMask & hiMask
		return
	}
	b.words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[hw] |= hiMask
}

// Reset clears every bit.
func (b *Bitvec) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// maskTail zeroes the unused bits of the final word.
func (b *Bitvec) maskTail() {
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << r) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitvec) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi), word-at-a-time —
// the popcount behind run-at-a-time fused aggregation: a selected RLE run
// contributes its selection count without expanding a single row.
func (b *Bitvec) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		return bits.OnesCount64(b.words[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(b.words[lw] & loMask)
	for w := lw + 1; w < hw; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	return c + bits.OnesCount64(b.words[hw]&hiMask)
}

// And intersects o into b (lengths must match).
func (b *Bitvec) And(o *Bitvec) {
	checkLen(b, o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// AppendIndices appends the positions of all set bits to dst in
// ascending order, so a caller sweeping many windows can reuse one
// selection buffer.
func (b *Bitvec) AppendIndices(dst []int32) []int32 {
	for wi, w := range b.words {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

func checkLen(a, b *Bitvec) {
	if a.n != b.n {
		panic("vec: bit vector length mismatch")
	}
}
