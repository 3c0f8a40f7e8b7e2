package colstore

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

// decodeShapes covers every codec the seal advisor can choose, plus the
// raw fallback (>63-bit range) and an unsealed column.
func decodeShapes() map[string][]int64 {
	const n = 3*SegSize + 1234 // multiple segments plus a ragged tail
	wide := synth.UniformInts(7, n, 1<<20)
	wide[0], wide[1] = -1<<62, 1<<62 // blows the bitpack width: stays raw
	return map[string][]int64{
		"rle":     synth.RunsInts(3, n, 16, 64),
		"dict":    synth.UniformInts(4, n, 32),
		"delta":   synth.SortedInts(5, n, 8),
		"bitpack": synth.UniformInts(6, n, 1<<20),
		"raw":     wide,
	}
}

func TestDecodeRangeMatchesGetAllCodecs(t *testing.T) {
	for name, vals := range decodeShapes() {
		c := NewIntColumn()
		c.AppendSlice(vals)
		c.Seal()
		n := c.Len()
		windows := [][2]int{
			{0, n},
			{0, 1},
			{n - 1, n},
			{SegSize - 3, SegSize + 3},         // segment boundary
			{SegSize/2 + 7, 2*SegSize - 129},   // interior, frame-unaligned
			{2*SegSize + 130, 2*SegSize + 131}, // single row mid delta frame
		}
		for _, w := range windows {
			lo, hi := w[0], w[1]
			out := make([]int64, hi-lo)
			ctr := c.DecodeRange(lo, hi, out)
			for i := lo; i < hi; i++ {
				if out[i-lo] != vals[i] {
					t.Fatalf("%s: DecodeRange[%d,%d) row %d = %d, want %d",
						name, lo, hi, i, out[i-lo], vals[i])
				}
			}
			if ctr.BytesReadDRAM == 0 {
				t.Errorf("%s: DecodeRange[%d,%d) charged no DRAM bytes", name, lo, hi)
			}
		}
	}
}

func TestDecodeRangeUnsealed(t *testing.T) {
	vals := synth.UniformInts(9, SegSize+99, 1<<16)
	c := NewIntColumn()
	c.AppendSlice(vals)
	out := make([]int64, len(vals))
	c.DecodeRange(0, len(vals), out)
	for i, v := range vals {
		if out[i] != v {
			t.Fatalf("unsealed row %d = %d, want %d", i, out[i], v)
		}
	}
}

func TestDecodeRangeStreamsFewerBytesThanRaw(t *testing.T) {
	// A full-column decode of a compressible layout must stream fewer
	// bytes than the 8/row raw widening — that is what makes per-morsel
	// key extraction cheaper on sealed tables.
	for _, name := range []string{"rle", "dict", "delta", "bitpack"} {
		vals := decodeShapes()[name]
		c := NewIntColumn()
		c.AppendSlice(vals)
		c.Seal()
		out := make([]int64, c.Len())
		ctr := c.DecodeRange(0, c.Len(), out)
		if raw := uint64(c.Len()) * 8; ctr.BytesReadDRAM >= raw {
			t.Errorf("%s: decode streamed %d bytes, raw widening is %d", name, ctr.BytesReadDRAM, raw)
		}
	}
}

func TestStringColumnKeySurface(t *testing.T) {
	c := NewStringColumn()
	c.AppendSlice([]string{"delta", "alpha", "carol", "alpha", "bob"})
	c.SealSorted()
	dict := c.Dict()
	want := []string{"alpha", "bob", "carol", "delta"}
	if len(dict) != len(want) {
		t.Fatalf("dict size %d, want %d", len(dict), len(want))
	}
	for i, s := range want {
		if dict[i] != s {
			t.Fatalf("dict[%d] = %q, want %q", i, dict[i], s)
		}
	}
	codes := c.CodeColumn()
	for i := 0; i < c.Len(); i++ {
		if got := dict[codes.Get(i)]; got != c.Get(i) {
			t.Fatalf("row %d: code path %q, direct %q", i, got, c.Get(i))
		}
	}
}

// TestSpanCodesMatchGetEveryWidth checks the bulk code decode of dict
// spans against per-row point reads: segments sealed as dictionaries of
// 1- to 16-bit codes (every width a segment's row count allows), read
// over random spans that start and end anywhere inside a packed word.
func TestSpanCodesMatchGetEveryWidth(t *testing.T) {
	rng := workload.NewRNG(27)
	const n = SegSize
	for width := 1; width <= 16; width++ {
		card := 1 << width
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i%card)*3 - 7 // every code in use
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		s := &intSegment{raw: vals}
		s.sealDict()
		s.n, s.sealed, s.raw = n, true, nil
		if s.enc != compress.Dict || s.packed.Width() != width {
			t.Fatalf("width %d: sealed as enc %v width %d", width, s.enc, s.packed.Width())
		}
		for trial := 0; trial < 64; trial++ {
			a := rng.Intn(n)
			b := a + 1 + rng.Intn(min(n-a, 300))
			if trial%8 == 0 {
				b = a + 1 + rng.Intn(n-a)
			}
			sp := SegSpan{A: a, B: b, Enc: compress.Dict, seg: s, la: a}
			out := make([]int64, b-a)
			sp.Codes(out)
			for i, code := range out {
				if got, want := s.dictVals[code], s.getSealed(a+i); got != want {
					t.Fatalf("width %d span [%d,%d) row %d: code %d decodes to %d, want %d",
						width, a, b, a+i, code, got, want)
				}
			}
		}
	}
}

// TestGatherRowsMatchesGet checks the gather cursor against per-row Get
// for every codec, on three layouts (one sealed segment, raw appends, and
// sealed segments followed by an unsealed tail) and three row orders: an
// ascending selection, a random order that jumps backwards across frames
// and segments, and ascending rows each repeated.
func TestGatherRowsMatchesGet(t *testing.T) {
	for name, vals := range decodeShapes() {
		layouts := map[string]*IntColumn{
			"sealed":        NewIntColumn(),
			"unsealed":      NewIntColumn(),
			"multi-segment": NewIntColumn(),
		}
		layouts["sealed"].AppendSlice(vals[:SegSize/2+300])
		layouts["sealed"].Seal()
		layouts["unsealed"].AppendSlice(vals)
		layouts["multi-segment"].AppendSlice(vals[:len(vals)-777])
		layouts["multi-segment"].Seal()
		layouts["multi-segment"].AppendSlice(vals[len(vals)-777:])
		for layout, c := range layouts {
			if layout != "unsealed" && c.Storage().Segments[name] == 0 {
				t.Fatalf("%s/%s: no %s segment to gather from: %v", name, layout, name, c.Storage().Segments)
			}
			n := c.Len()
			rng := workload.NewRNG(uint64(len(name) + n))
			for _, w := range [][2]int{{0, n}, {SegSize/2 - 129, n - 3}} {
				lo, hi := w[0], w[1]
				var asc, dup []int32
				for r := 0; r < hi-lo; r++ {
					if r%7 == 0 || r == hi-lo-1 || rng.Intn(3) == 0 {
						asc = append(asc, int32(r))
						dup = append(dup, int32(r), int32(r))
					}
				}
				random := make([]int32, 4000)
				for i := range random {
					random[i] = int32(rng.Intn(hi - lo))
				}
				for order, rows := range map[string][]int32{"ascending": asc, "random": random, "duplicate": dup} {
					out := make([]int64, len(rows))
					c.GatherRows(lo, rows, out)
					for i, r := range rows {
						if want := c.Get(lo + int(r)); out[i] != want {
							t.Fatalf("%s/%s/%s [%d,%d): row %d = %d, Get says %d",
								name, layout, order, lo, hi, lo+int(r), out[i], want)
						}
					}
				}
			}
		}
	}
}
