// Package compress implements the lightweight column codecs the paper's
// optimizer chooses between — dictionary encoding, run-length encoding,
// bit-packing, delta/varint, and frame-of-reference — plus an advisor that
// picks a codec from simple statistics.  These codecs feed two experiments:
// the compress-vs-send decision for intermediate results (E3) and the
// packed word-parallel scans (E7, via internal/vec which consumes packed
// layouts).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrCorrupt is returned when a payload fails structural validation.
var ErrCorrupt = errors.New("compress: corrupt payload")

// BitsFor returns the minimal code width able to represent max distinct
// values 0..max (at least 1 bit).
func BitsFor(max uint64) int {
	if max == 0 {
		return 1
	}
	return bits.Len64(max)
}

// PackUint64 packs each value into width bits, little-endian within
// consecutive uint64 words (values may straddle word boundaries).  All
// values must fit in width bits; the function panics otherwise, since
// callers are expected to have computed width with BitsFor.
func PackUint64(values []uint64, width int) []uint64 {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("compress: invalid pack width %d", width))
	}
	totalBits := len(values) * width
	out := make([]uint64, (totalBits+63)/64)
	var mask uint64
	if width == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << width) - 1
	}
	bitPos := 0
	for _, v := range values {
		if v&^mask != 0 {
			panic(fmt.Sprintf("compress: value %d exceeds %d bits", v, width))
		}
		w, off := bitPos/64, bitPos%64
		out[w] |= v << off
		if off+width > 64 {
			out[w+1] |= v >> (64 - off)
		}
		bitPos += width
	}
	return out
}

// UnpackUint64 reverses PackUint64 for n values of the given width.
func UnpackUint64(packed []uint64, n, width int) []uint64 {
	out := make([]uint64, n)
	var mask uint64
	if width == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << width) - 1
	}
	bitPos := 0
	for i := 0; i < n; i++ {
		w, off := bitPos/64, bitPos%64
		v := packed[w] >> off
		if off+width > 64 {
			v |= packed[w+1] << (64 - off)
		}
		out[i] = v & mask
		bitPos += width
	}
	return out
}

// PackedGet extracts value i from a packed buffer without unpacking the
// rest — point access on a packed buffer.
func PackedGet(packed []uint64, i, width int) uint64 {
	var mask uint64
	if width == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << width) - 1
	}
	bitPos := i * width
	w, off := bitPos/64, bitPos%64
	v := packed[w] >> off
	if off+width > 64 {
		v |= packed[w+1] << (64 - off)
	}
	return v & mask
}

// bitpackCodec serializes int64 slices as width-packed non-negative
// deltas from the minimum (frame of reference), making it safe for any
// input range.  Layout: n varint, min varint(zigzag), width byte, words.
type bitpackCodec struct{}

func (bitpackCodec) Name() string { return "bitpack" }

func (bitpackCodec) Compress(values []int64) []byte {
	min := int64(0)
	if len(values) > 0 {
		min = values[0]
		for _, v := range values {
			if v < min {
				min = v
			}
		}
	}
	var maxDelta uint64
	deltas := make([]uint64, len(values))
	for i, v := range values {
		d := uint64(v - min)
		deltas[i] = d
		if d > maxDelta {
			maxDelta = d
		}
	}
	width := BitsFor(maxDelta)
	packed := PackUint64(deltas, width)
	buf := make([]byte, 0, 16+len(packed)*8)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	buf = binary.AppendVarint(buf, min)
	buf = append(buf, byte(width))
	for _, w := range packed {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func (bitpackCodec) Decompress(payload []byte) ([]int64, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	payload = payload[k:]
	min, k := binary.Varint(payload)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	payload = payload[k:]
	if len(payload) < 1 {
		return nil, ErrCorrupt
	}
	width := int(payload[0])
	payload = payload[1:]
	if width <= 0 || width > 64 {
		return nil, ErrCorrupt
	}
	words := (int(n)*width + 63) / 64
	if len(payload) < words*8 {
		return nil, ErrCorrupt
	}
	packed := make([]uint64, words)
	for i := range packed {
		packed[i] = binary.LittleEndian.Uint64(payload[i*8:])
	}
	deltas := UnpackUint64(packed, int(n), width)
	out := make([]int64, n)
	for i, d := range deltas {
		out[i] = min + int64(d)
	}
	return out, nil
}

// CostFactor implements Codec: bit-packing is cheap per value.
func (bitpackCodec) CostFactor() float64 { return 4 }
