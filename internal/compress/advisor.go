package compress

import (
	"math/bits"
	"slices"
)

// Stats summarizes a vector for the codec advisor: the same statistics a
// column-store catalog keeps per segment.
type Stats struct {
	N int // number of values
	// Distinct counts distinct values, saturating at DistinctCap; when
	// DistinctCapped is set, Distinct is a lower bound, not an exact
	// count.
	Distinct       int
	DistinctCapped bool    // the exact count reached DistinctCap
	Runs           int     // number of RLE runs
	Sorted         bool    // non-decreasing?
	Min, Max       int64   // value range
	AvgRun         float64 // N/Runs
}

// DistinctCap is where Stats.Distinct saturates and DistinctCapped is
// set.
const DistinctCap = 1 << 16

// Profile is a vector's Stats plus the distinct-value structure the
// exact count built, which Dict turns into a dictionary without counting
// again.
type Profile struct {
	Stats
	set    []uint64 // bounded range: bit v-Min set for each value v
	sorted []int64  // otherwise, unsorted input: its distinct values, ascending
}

// Analyze profiles values in O(N): one pass for the range, order and
// runs, then the exact distinct count — Runs when the input is sorted, a
// bitset over [Min, Max] when that range needs no more bits than the
// values occupy (64 per value), otherwise one sort of a copy.
func Analyze(values []int64) Profile {
	p := Profile{Stats: Stats{N: len(values), Sorted: true}}
	s := &p.Stats
	if len(values) == 0 {
		return p
	}
	lo, hi, runs, sorted, prev := values[0], values[0], 1, true, values[0]
	for _, v := range values[1:] {
		lo, hi = min(lo, v), max(hi, v)
		if v < prev {
			sorted = false
		}
		if v != prev {
			runs++
		}
		prev = v
	}
	s.Min, s.Max, s.Runs, s.Sorted = lo, hi, runs, sorted
	exact := runs
	switch span := uint64(hi) - uint64(lo); { // exact: two's-complement wrap
	case sorted:
	case span < uint64(len(values))*64:
		set := make([]uint64, span/64+1)
		for _, v := range values {
			d := uint64(v) - uint64(lo)
			set[d/64] |= 1 << (d % 64)
		}
		exact = 0
		for _, w := range set {
			exact += bits.OnesCount64(w)
		}
		p.set = set
	default:
		p.sorted = slices.Clone(values)
		slices.Sort(p.sorted)
		p.sorted = slices.Compact(p.sorted)
		exact = len(p.sorted)
	}
	s.Distinct = min(exact, DistinctCap)
	s.DistinctCapped = exact >= DistinctCap
	s.AvgRun = float64(s.N) / float64(s.Runs)
	return p
}

// Dict returns the dictionary encoding of the values p profiles: the
// distinct values ascending, and each value's code, its index there.
func (p *Profile) Dict(values []int64) (dict []int64, codes []uint64) {
	codes = make([]uint64, len(values))
	switch {
	case p.N == 0:
	case p.Sorted:
		dict = append(dict, values[0])
		for i, v := range values {
			if v != dict[len(dict)-1] {
				dict = append(dict, v)
			}
			codes[i] = uint64(len(dict) - 1)
		}
	case p.set != nil:
		// A value's code is its rank in the set: the bits below it.
		set, lo := p.set, p.Min
		rank := make([]uint32, len(set))
		n := 0
		for wi, w := range set {
			rank[wi] = uint32(n)
			n += bits.OnesCount64(w)
		}
		dict = make([]int64, 0, n)
		for wi, w := range set {
			for ; w != 0; w &= w - 1 {
				dict = append(dict, lo+int64(wi*64+bits.TrailingZeros64(w)))
			}
		}
		for i, v := range values {
			d := uint64(v) - uint64(lo)
			codes[i] = uint64(rank[d/64]) + uint64(bits.OnesCount64(set[d/64]&(1<<(d%64)-1)))
		}
	default:
		dict = slices.Clone(p.sorted)
		for i, v := range values {
			c, _ := slices.BinarySearch(dict, v)
			codes[i] = uint64(c)
		}
	}
	return dict, codes
}

// Choose returns the encoding the advisor predicts to compress best:
// long runs -> RLE; sorted -> delta; low cardinality -> dict; otherwise
// bit-packing (which always beats raw for bounded ranges).
//
// The dict arm requires an exact distinct count: a saturated count is
// only a lower bound, so "Distinct <= N/8" would be unprovable — the
// true cardinality may be far larger, and a dictionary over it would
// inflate rather than compress.  Saturated inputs fall through to
// bit-packing.
func Choose(s Stats) Encoding {
	switch {
	case s.N == 0:
		return Raw
	case s.AvgRun >= 4:
		return RLE
	case s.Sorted:
		return Delta
	case !s.DistinctCapped && s.Distinct > 0 && s.Distinct <= s.N/8 && s.Distinct <= 1<<20:
		return Dict
	default:
		return Bitpack
	}
}
