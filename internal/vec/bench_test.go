package vec

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// BenchmarkPackedScanWidths is the code-width ablation from DESIGN.md:
// codes per word fall from 7 (8-bit) to 2 (24-bit), and throughput with
// them.  Bytes/op counts logical uint64 input so MB/s is comparable
// across widths.  The eq cases are the point read's predicate at the
// selectivities a served key sees (a cold key, the hottest key, half the
// rows), spanning a narrow width that gathers slot by slot and three
// that gather with one multiply; window is one segment of codes scanned
// into a morsel selection at an unaligned bit offset, the way colstore's
// segment kernels call it.
func BenchmarkPackedScanWidths(b *testing.B) {
	const n = 1 << 20
	for _, width := range []int{8, 12, 16, 24, 32} {
		max := uint64(1)<<uint(width) - 1
		rng := workload.NewRNG(uint64(width))
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() & max
		}
		p := NewPacked(codes, width)
		c := max / 2
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			b.SetBytes(n * 8)
			out := NewBitvec(n)
			for i := 0; i < b.N; i++ {
				out.Reset()
				p.Scan(LT, c, out)
			}
		})
	}
	for _, width := range []int{3, 8, 14, 24} {
		for _, sel := range []float64{0.001, 0.15, 0.5} {
			p, c := eqColumn(width, sel, n)
			b.Run(fmt.Sprintf("eq/w%d/sel%g%%", width, sel*100), func(b *testing.B) {
				b.SetBytes(n * 8)
				out := NewBitvec(n)
				for i := 0; i < b.N; i++ {
					out.Reset()
					p.Scan(EQ, c, out)
				}
			})
		}
	}
	const seg, off = 1 << 16, 37
	p, c := eqColumn(14, 0.001, seg)
	b.Run("eq/w14/sel0.1%/window", func(b *testing.B) {
		b.SetBytes(seg * 8)
		out := NewBitvec(2 * seg)
		for i := 0; i < b.N; i++ {
			out.Reset()
			p.ScanWindow(EQ, c, 0, seg, out, off)
		}
	})
}

// eqColumn packs n width-bit codes of which a fraction sel equals the
// returned constant and the rest are uniform over the other codes.
func eqColumn(width int, sel float64, n int) (*Packed, uint64) {
	max := uint64(1)<<uint(width) - 1
	c := max / 2
	rng := workload.NewRNG(uint64(width)*1000 + uint64(sel*1000))
	codes := make([]uint64, n)
	for i := range codes {
		if rng.Float64() < sel {
			codes[i] = c
		} else if codes[i] = rng.Uint64() % max; codes[i] >= c {
			codes[i]++ // uniform over the max codes other than c
		}
	}
	return NewPacked(codes, width), c
}

// BenchmarkScanSelectivity shows the branching kernel's misprediction
// valley versus the flat predicated kernel.
func BenchmarkScanSelectivity(b *testing.B) {
	const n = 1 << 20
	vals := workload.UniformInts(3, n, 1000)
	for _, sel := range []int64{10, 500, 990} {
		b.Run(fmt.Sprintf("branching-sel%d", sel), func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				out := NewBitvec(n)
				ScanBranching(vals, LT, sel, out)
			}
		})
		b.Run(fmt.Sprintf("predicated-sel%d", sel), func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				out := NewBitvec(n)
				ScanPredicated(vals, LT, sel, out)
			}
		})
	}
}

// BenchmarkLayouts compares the two SIMD-substitute layouts: horizontal
// (all bits of a code together) vs vertical (bit-sliced with early exit).
// The vertical layout shines when codes diverge from the constant early
// (here: constant below most data), the horizontal when full codes are
// needed.
func BenchmarkLayouts(b *testing.B) {
	const n, width = 1 << 20, 16
	rng := workload.NewRNG(2)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = 1<<15 | rng.Uint64()&0x7FFF // MSB set: early divergence below
	}
	h := NewPacked(vals, width)
	v := NewVertical(vals, width)
	b.Run("horizontal-earlydiverge", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := NewBitvec(n)
			h.Scan(LT, 0x1000, out)
		}
	})
	b.Run("vertical-earlydiverge", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := NewBitvec(n)
			v.Scan(LT, 0x1000, out)
		}
	})
	b.Run("horizontal-deep", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := NewBitvec(n)
			h.Scan(LT, 1<<15|0x4000, out)
		}
	})
	b.Run("vertical-deep", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := NewBitvec(n)
			v.Scan(LT, 1<<15|0x4000, out)
		}
	})
}

// BenchmarkBitvecOps measures the boolean-algebra combinators used to
// merge predicate results.
func BenchmarkBitvecOps(b *testing.B) {
	const n = 1 << 20
	x, y := NewBitvec(n), NewBitvec(n)
	rng := workload.NewRNG(5)
	for i := 0; i < n/8; i++ {
		x.Set(rng.Intn(n))
		y.Set(rng.Intn(n))
	}
	b.Run("and", func(b *testing.B) {
		b.SetBytes(n / 8)
		for i := 0; i < b.N; i++ {
			z := x.Clone()
			z.And(y)
		}
	})
	b.Run("count", func(b *testing.B) {
		b.SetBytes(n / 8)
		for i := 0; i < b.N; i++ {
			x.Count()
		}
	})
	b.Run("indices", func(b *testing.B) {
		var rows []int32
		for i := 0; i < b.N; i++ {
			rows = x.AppendIndices(rows[:0])
		}
	})
}
