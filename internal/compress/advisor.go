package compress

// Stats summarizes a vector for the codec advisor: the same statistics a
// column-store catalog keeps per segment.
type Stats struct {
	N int // number of values
	// Distinct counts distinct values.  Counting saturates at
	// DistinctCap to bound Analyze's memory; when DistinctCapped is set,
	// Distinct is a lower bound, not an exact count.
	Distinct       int
	DistinctCapped bool    // distinct counting saturated at DistinctCap
	Runs           int     // number of RLE runs
	Sorted         bool    // non-decreasing?
	Min, Max       int64   // value range
	AvgRun         float64 // N/Runs
}

// DistinctCap bounds the distinct-counting set in Analyze.  Beyond it
// Stats.Distinct saturates and DistinctCapped is set.
const DistinctCap = 1 << 16

// Analyze computes Stats in one pass (plus a bounded distinct count).
func Analyze(values []int64) Stats {
	s := Stats{N: len(values), Sorted: true, Runs: 0}
	if len(values) == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	s.Runs = 1
	distinct := make(map[int64]struct{})
	const distinctCap = DistinctCap
	distinct[values[0]] = struct{}{}
	for i := 1; i < len(values); i++ {
		v := values[i]
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		if v < values[i-1] {
			s.Sorted = false
		}
		if v != values[i-1] {
			s.Runs++
		}
		if len(distinct) < distinctCap {
			distinct[v] = struct{}{}
		}
	}
	s.Distinct = len(distinct)
	s.DistinctCapped = len(distinct) >= distinctCap
	s.AvgRun = float64(s.N) / float64(s.Runs)
	return s
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
