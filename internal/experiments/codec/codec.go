// Package codec holds the byte-stream column codecs the shipping
// experiments reason about: the compress-vs-send decision for
// intermediate results (E3, internal/experiments/ship) and compressed
// shipping between nodes (E17, internal/experiments/dist).  Each codec
// serializes one of internal/compress's segment encodings to a
// self-describing payload and back, and takes its name and CPU cost
// factor from that encoding, so the shipping model and the served store
// price an encoding alike.
package codec

import (
	"errors"

	"repro/internal/compress"
)

// ErrCorrupt is returned when a payload fails structural validation.
var ErrCorrupt = errors.New("codec: corrupt payload")

// Codec compresses int64 column vectors to bytes and back.  Codecs are the
// unit the optimizer's compress-vs-send decision (experiment E3) reasons
// about: each has a compression ratio (data dependent) and a CPU cost
// factor (instructions per value, data independent) that the cost model
// multiplies into time and energy.
type Codec interface {
	// Name identifies the codec in plans and reports.
	Name() string
	// Compress serializes values into a self-describing payload.
	Compress(values []int64) []byte
	// Decompress reverses Compress.
	Decompress(payload []byte) ([]int64, error)
	// CostFactor is the approximate number of instructions spent per
	// value on one side (compress or decompress), used by the cost
	// model.
	CostFactor() float64
}

// enc gives a codec its encoding's name and cost factor; the raw
// encoding ships as codec "none".
type enc compress.Encoding

func (e enc) Name() string {
	if compress.Encoding(e) == compress.Raw {
		return "none"
	}
	return compress.Encoding(e).String()
}

func (e enc) CostFactor() float64 { return compress.Encoding(e).CostFactor() }

// noneCodec ships raw little-endian values: the "uncompressed" arm of the
// compress-vs-send decision.
type noneCodec struct{ enc }

func (noneCodec) Compress(values []int64) []byte {
	buf := make([]byte, 8*len(values))
	for i, v := range values {
		putUint64LE(buf[i*8:], uint64(v))
	}
	return buf
}

func (noneCodec) Decompress(payload []byte) ([]int64, error) {
	if len(payload)%8 != 0 {
		return nil, ErrCorrupt
	}
	out := make([]int64, len(payload)/8)
	for i := range out {
		out[i] = int64(uint64LE(payload[i*8:]))
	}
	return out, nil
}

func putUint64LE(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func uint64LE(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// The codec singletons, one per encoding.
var (
	None    Codec = noneCodec{enc(compress.Raw)}
	Bitpack Codec = bitpackCodec{enc(compress.Bitpack)}
	RLE     Codec = rleCodec{enc(compress.RLE)}
	Delta   Codec = deltaCodec{enc(compress.Delta)}
	Dict    Codec = dictCodec{enc(compress.Dict)}
)

// All returns every codec, in the encodings' report order.
func All() []Codec { return []Codec{None, Bitpack, RLE, Delta, Dict} }

// For returns the codec serializing encoding e, the advisor's choice.
func For(e compress.Encoding) Codec { return All()[e] }

// Ratio compresses values with c and returns compressedBytes/rawBytes
// (lower is better; 1.0 means no gain).
func Ratio(c Codec, values []int64) float64 {
	if len(values) == 0 {
		return 1
	}
	raw := 8 * len(values)
	return float64(len(c.Compress(values))) / float64(raw)
}
