// Package compress is the segment-encoding advisor: it summarizes a
// vector of values (Stats) and picks the lightweight encoding predicted
// to store it best — run-length, delta, dictionary or frame-of-reference
// bit-packing.  The encoding list, with the per-value CPU cost factor the
// energy model multiplies in, is defined once here; internal/colstore
// seals segments into the advisor's choice and scans them without
// decoding.  Byte-stream codecs over the same encodings (for shipping
// intermediate results, E3 and E17) live in internal/experiments/codec.
package compress

import "math/bits"

// BitsFor returns the minimal code width able to represent max distinct
// values 0..max (at least 1 bit).
func BitsFor(max uint64) int {
	if max == 0 {
		return 1
	}
	return bits.Len64(max)
}
