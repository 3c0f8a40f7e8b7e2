package compress

// Encoding is one segment layout the advisor chooses between.
type Encoding int

// The encodings, in report order.
const (
	Raw     Encoding = iota // plain 8-byte values (unsealed, empty, or a >63-bit range)
	Bitpack                 // frame-of-reference packed codes
	RLE                     // (value, length) runs
	Delta                   // sorted values as varint deltas
	Dict                    // sorted distinct values + packed codes
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Bitpack:
		return "bitpack"
	case RLE:
		return "rle"
	case Delta:
		return "delta"
	case Dict:
		return "dict"
	}
	return "raw"
}

// CostFactor is the approximate number of instructions spent per value
// to encode or decode the layout, which the energy model multiplies into
// time and energy.  Bit-packing is cheap per value; runs are cheaper per
// run than per value; varint deltas and dictionary lookups cost more.
func (e Encoding) CostFactor() float64 {
	switch e {
	case Bitpack:
		return 4
	case RLE:
		return 2
	case Delta:
		return 6
	case Dict:
		return 8
	}
	return 1
}
