package codec

import (
	"encoding/binary"
	"sort"

	"repro/internal/compress"
)

// Dictionary maps strings to dense integer codes.  Codes are assigned in
// sorted order so range predicates on the original domain translate to
// range predicates on codes — the property the word-parallel scans in
// internal/vec rely on to evaluate string predicates without decoding.
type Dictionary struct {
	values []string       // sorted distinct values; code = index
	index  map[string]int // value -> code
}

// BuildDictionary constructs an order-preserving dictionary over the
// distinct values of input and returns the dictionary plus the per-row
// codes.
func BuildDictionary(input []string) (*Dictionary, []int64) {
	set := make(map[string]struct{}, len(input)/4+1)
	for _, s := range input {
		set[s] = struct{}{}
	}
	vals := make([]string, 0, len(set))
	for s := range set {
		vals = append(vals, s)
	}
	sort.Strings(vals)
	d := &Dictionary{values: vals, index: make(map[string]int, len(vals))}
	for i, s := range vals {
		d.index[s] = i
	}
	codes := make([]int64, len(input))
	for i, s := range input {
		codes[i] = int64(d.index[s])
	}
	return d, codes
}

// Size returns the number of distinct values.
func (d *Dictionary) Size() int { return len(d.values) }

// Code returns the code of s and whether it is present.
func (d *Dictionary) Code(s string) (int64, bool) {
	c, ok := d.index[s]
	return int64(c), ok
}

// Value returns the string for code c.
func (d *Dictionary) Value(c int64) string { return d.values[c] }

// dictCodec serializes values via an embedded dictionary of distinct
// int64s plus bit-packed codes — the winning codec for low-cardinality
// columns such as region or status.
type dictCodec struct{ enc }

func (dictCodec) Compress(values []int64) []byte {
	set := make(map[int64]struct{})
	for _, v := range values {
		set[v] = struct{}{}
	}
	distinct := make([]int64, 0, len(set))
	for v := range set {
		distinct = append(distinct, v)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	codeOf := make(map[int64]uint64, len(distinct))
	for i, v := range distinct {
		codeOf[v] = uint64(i)
	}
	width := compress.BitsFor(uint64(len(distinct)))
	codes := make([]uint64, len(values))
	for i, v := range values {
		codes[i] = codeOf[v]
	}
	packed := PackUint64(codes, width)

	buf := make([]byte, 0, len(distinct)*2+len(packed)*8+16)
	buf = binary.AppendUvarint(buf, uint64(len(distinct)))
	prev := int64(0)
	for _, v := range distinct {
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	buf = append(buf, byte(width))
	for _, w := range packed {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

func (dictCodec) Decompress(payload []byte) ([]int64, error) {
	nd, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	payload = payload[k:]
	distinct := make([]int64, nd)
	prev := int64(0)
	for i := uint64(0); i < nd; i++ {
		d, k := binary.Varint(payload)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		payload = payload[k:]
		prev += d
		distinct[i] = prev
	}
	n, k := binary.Uvarint(payload)
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
	codes := UnpackUint64(packed, int(n), width)
	out := make([]int64, n)
	for i, c := range codes {
		if c >= nd {
			return nil, ErrCorrupt
		}
		out[i] = distinct[c]
	}
	return out, nil
}
