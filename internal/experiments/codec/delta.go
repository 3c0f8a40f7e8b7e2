package codec

import "encoding/binary"

// deltaCodec stores zigzag-varint deltas between consecutive values —
// near-optimal for sorted or slowly changing sequences such as the
// timestamp columns of the paper's sensor and clickstream data.
type deltaCodec struct{ enc }

func (deltaCodec) Compress(values []int64) []byte {
	buf := make([]byte, 0, len(values)*2+8)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	prev := int64(0)
	for _, v := range values {
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

func (deltaCodec) Decompress(payload []byte) ([]int64, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	payload = payload[k:]
	out := make([]int64, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, k := binary.Varint(payload)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		payload = payload[k:]
		prev += d
		out = append(out, prev)
	}
	return out, nil
}
