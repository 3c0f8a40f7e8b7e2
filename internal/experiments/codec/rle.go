package codec

import (
	"encoding/binary"

	"repro/internal/compress"
)

// DecodeRuns expands runs back into values.
func DecodeRuns(runs []compress.Run) []int64 {
	n := 0
	for _, r := range runs {
		n += int(r.Length)
	}
	out := make([]int64, 0, n)
	for _, r := range runs {
		for i := uint32(0); i < r.Length; i++ {
			out = append(out, r.Value)
		}
	}
	return out
}

// rleCodec serializes runs as varint pairs.
type rleCodec struct{ enc }

func (rleCodec) Compress(values []int64) []byte {
	runs := compress.EncodeRuns(values)
	buf := make([]byte, 0, 8+len(runs)*4)
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for _, r := range runs {
		buf = binary.AppendVarint(buf, r.Value)
		buf = binary.AppendUvarint(buf, uint64(r.Length))
	}
	return buf
}

func (rleCodec) Decompress(payload []byte) ([]int64, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	payload = payload[k:]
	runs := make([]compress.Run, 0, n)
	total := 0
	for i := uint64(0); i < n; i++ {
		v, k := binary.Varint(payload)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		payload = payload[k:]
		l, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		payload = payload[k:]
		runs = append(runs, compress.Run{Value: v, Length: uint32(l)})
		total += int(l)
	}
	return DecodeRuns(runs), nil
}
