// Package num is the engine's one exact aggregate arithmetic: the
// DOUBLE sum (FloatSum), the BIGINT sum's ring rule (RingAdd) and the
// total order MIN and MAX keep a DOUBLE in (MinMaxKey).  Every one of
// them is order-free — a function of the multiset of its inputs — so the
// aggregate fold, its partial merge and the column store's seal-time
// segment synopses compute the same bits from any decomposition of the
// same rows.
package num

import (
	"math"
	"math/bits"
)

// FloatSum is the one DOUBLE accumulator behind SUM and AVG: a binned sum
// whose state is a pure function of the multiset of its inputs, so every
// morsel grid, worker count, feeder and merge order gives the same
// bits.
//
// A finite input is ±m·2^(e−1074) with an integer significand m of at
// most 53 bits, so its bits sit at absolute positions e … e+52.  Those
// positions are cut into 32-bit bins at fixed boundaries (bin b holds
// positions [32(b−1), 32b)).  The state is three int64 limbs holding the
// exact integer sum of every input's chunk in bins top, top−1 and top−2,
// where top is the highest bin any input's leading bit reached, plus one
// flag per special seen.  When top rises, a bin that falls below the
// window is dropped whole, and no carry ever crosses bins: adding an
// input, raising the window and merging two states all commute.
//
// Exactness.  The window is 96 bits wide.  It keeps every input bit no
// more than 2^64 below the leading bit of the group's largest input (up to
// 2^95, by where that bit falls in its bin); an input is summed exactly
// when its lowest set bit lies in it — true of realistic measures, whose
// magnitudes sit within a few decimal orders of each other — and bits
// further down are dropped, so cancelling inputs 2^96 larger than the rest
// lose the rest.  A limb sums one chunk below 2^32 per input, so the limbs
// are exact for fewer than 2^31 inputs per group.
//
// Value rounds the windowed sum once, to nearest even: it is the
// correctly rounded sum of the windowed inputs.  NaN if any input was NaN
// or both infinities were seen, otherwise the infinity seen; a sum that is
// exactly zero — of zeros alone, or cancelling — is +0.
//
//lint:hotpath
type FloatSum struct {
	l     [3]int64 // exact chunk sums of bins top, top−1, top−2
	top   int32    // 0 until a finite nonzero input arrives
	flags uint8    // sumNaN | sumPosInf | sumNegInf
}

const (
	sumNaN uint8 = 1 << iota
	sumPosInf
	sumNegInf
)

// Add folds x into the sum.
func (s *FloatSum) Add(x float64) {
	b := math.Float64bits(x)
	e := int32(b>>52) & 0x7ff
	m := b & (1<<52 - 1)
	switch {
	case e == 0x7ff: // NaN, or an infinity by its sign
		if m != 0 {
			s.flags |= sumNaN
		} else {
			s.flags |= sumPosInf << (b >> 63)
		}
		return
	case e != 0:
		m |= 1 << 52 // normal: the hidden bit, lowest bit at e−1
		e--
	case m == 0:
		return // ±0 adds nothing
	}
	// The significand shifted to its offset in its lowest bin, e/32+1,
	// spans that bin and the next two; a negative input's chunks negate.
	sh := uint(e & 31)
	lo, hi := m<<sh, m>>(64-sh)
	neg := int64(b) >> 63
	c0 := (int64(lo&(1<<32-1)) ^ neg) - neg
	c1 := (int64(lo>>32) ^ neg) - neg
	c2 := (int64(hi) ^ neg) - neg
	if top := (e+63-int32(bits.LeadingZeros64(m)))>>5 + 1; top > s.top {
		s.raise(top)
	}
	switch s.top - (e>>5 + 1) { // how far below top the lowest bin lies
	case 0:
		s.l[0] += c0
	case 1:
		s.l[0], s.l[1] = s.l[0]+c1, s.l[1]+c0
	case 2:
		s.l[0], s.l[1], s.l[2] = s.l[0]+c2, s.l[1]+c1, s.l[2]+c0
	case 3:
		s.l[1], s.l[2] = s.l[1]+c2, s.l[2]+c1
	case 4:
		s.l[2] += c2
	}
}

// raise moves the window up to top, dropping the bins that fall out.
func (s *FloatSum) raise(top int32) {
	d := min(top-s.top, 3)
	copy(s.l[d:], s.l[:3-d])
	clear(s.l[:d])
	s.top = top
}

// Merge folds o into s: limb addition once both windows are aligned.
func (s *FloatSum) Merge(o FloatSum) {
	s.flags |= o.flags
	switch {
	case o.top > s.top:
		s.raise(o.top)
	case o.top < s.top:
		o.raise(s.top)
	}
	s.l[0], s.l[1], s.l[2] = s.l[0]+o.l[0], s.l[1]+o.l[1], s.l[2]+o.l[2]
}

// Value returns the windowed sum, rounded once to nearest even.
func (s *FloatSum) Value() float64 {
	switch {
	case s.flags&sumNaN != 0 || s.flags&(sumPosInf|sumNegInf) == sumPosInf|sumNegInf:
		return math.NaN()
	case s.flags&sumPosInf != 0:
		return math.Inf(1)
	case s.flags&sumNegInf != 0:
		return math.Inf(-1)
	}
	// Carry l2 and l1 up so both lie in [0, 2^32): the sum is then the
	// signed 128-bit integer hi·2^64 + lo in units of l2's lowest bit.
	l1 := s.l[1] + s.l[2]>>32
	hi, lo := uint64(s.l[0]+l1>>32), uint64(l1)<<32|uint64(s.l[2])&(1<<32-1)
	neg := int64(hi) < 0
	if neg {
		hi, lo = ^hi, -lo
		if lo == 0 {
			hi++
		}
	}
	exp := 32*(int(s.top)-3) - 1074
	if hi != 0 { // keep the top 64 bits, any 1 shifted out jammed into the lowest
		k := uint(64 - bits.LeadingZeros64(hi))
		if lo<<(64-k) != 0 {
			lo |= 1 << k
		}
		lo = hi<<(64-k) | lo>>k
		exp += int(k)
	}
	// Those 64 bits are the sum rounded to odd, so float64's one rounding
	// to nearest even is the correct rounding of the sum itself.  A
	// rounded result is normal, so Ldexp only scales it; an unrounded one
	// is a multiple of 2^−1074 and exact even when subnormal.
	f := math.Ldexp(float64(lo), exp)
	if neg {
		return -f
	}
	return f
}

// MinMaxKey maps a DOUBLE onto an int64 whose order is the total order
// MIN and MAX use: −Inf < … < −0 < +0 < … < +Inf < NaN (NaN sorts highest,
// as in PostgreSQL; every NaN is one key).  It is the value's bits with a
// negative value's magnitude bits flipped — a flip that, applied to the
// key, gives the bits back (FromMinMaxKey).
func MinMaxKey(f float64) int64 {
	if f != f {
		f = math.NaN()
	}
	k := int64(math.Float64bits(f))
	return k ^ (k >> 63 & math.MaxInt64)
}

// FromMinMaxKey returns the DOUBLE whose MinMaxKey is k.
func FromMinMaxKey(k int64) float64 {
	return math.Float64frombits(uint64(k ^ (k >> 63 & math.MaxInt64)))
}

// RingAdd returns sum plus n occurrences of v.  A BIGINT SUM is
// arithmetic in the ring of int64 modulo 2^64: it wraps and is not
// trapped, and because +, * and a partial merge's + are all operations of
// that one ring, an overflowing SUM is the same wrapped value whether its
// rows are added one at a time, a run at a time (n·v) or as partial sums.
func RingAdd(sum, v, n int64) int64 { return sum + v*n }
