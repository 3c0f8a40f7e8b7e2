package colstore

import (
	"testing"

	"repro/internal/vec"
	"repro/internal/workload"
)

// BenchmarkScanSealedVsRaw is the packing ablation: the same predicate
// over the same data in raw (unsealed) and packed (sealed) form.  Sealing
// shrinks the bytes streamed ~4x for narrow domains and enables the
// word-parallel kernel.
func BenchmarkScanSealedVsRaw(b *testing.B) {
	const n = 4 * SegSize
	vals := workload.UniformInts(1, n, 1<<16)
	raw := NewIntColumn()
	raw.AppendSlice(vals)
	sealed := NewIntColumn()
	sealed.AppendSlice(vals)
	sealed.Seal()
	b.Run("raw", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			raw.ScanRows(vec.LT, 1<<15, 0, n, out)
		}
	})
	b.Run("sealed", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			sealed.ScanRows(vec.LT, 1<<15, 0, n, out)
		}
	})
}

// BenchmarkZoneMapPruning is the zone-map ablation: clustered data lets
// selective predicates skip whole segments; shuffled data defeats the
// zone maps and every segment is streamed.
func BenchmarkZoneMapPruning(b *testing.B) {
	const n = 8 * SegSize
	clustered := make([]int64, n)
	for i := range clustered {
		clustered[i] = int64(i) // perfectly clustered: zone maps prune
	}
	shuffled := append([]int64(nil), clustered...)
	rng := workload.NewRNG(7)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	mk := func(vals []int64) *IntColumn {
		c := NewIntColumn()
		c.AppendSlice(vals)
		c.Seal()
		return c
	}
	cc, cs := mk(clustered), mk(shuffled)
	b.Run("clustered-pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			cc.ScanRows(vec.LT, 1000, 0, n, out) // matches only the first segment
		}
	})
	b.Run("shuffled-unprunable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			cs.ScanRows(vec.LT, 1000, 0, n, out)
		}
	})
}

// BenchmarkPointGet measures random point access on sealed columns (the
// index-verification path).
func BenchmarkPointGet(b *testing.B) {
	const n = 4 * SegSize
	c := NewIntColumn()
	c.AppendSlice(workload.UniformInts(3, n, 1<<30))
	c.Seal()
	rng := workload.NewRNG(9)
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(idx[i&4095])
	}
}
