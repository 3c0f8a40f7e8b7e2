package codec

import (
	"fmt"
	"testing"

	"repro/internal/experiments/synth"
)

// BenchmarkCodecs measures compress and decompress throughput of every
// codec on its natural data shape — the CPU side of the compress-vs-send
// trade (E3).
func BenchmarkCodecs(b *testing.B) {
	const n = 1 << 18
	shapes := map[string][]int64{
		"runs":    synth.RunsInts(1, n, 8, 100),
		"sorted":  synth.SortedInts(2, n, 20),
		"uniform": synth.UniformInts(3, n, 1<<40),
	}
	for _, c := range All() {
		for name, data := range shapes {
			payload := c.Compress(data)
			b.Run(fmt.Sprintf("%s/%s/compress", c.Name(), name), func(b *testing.B) {
				b.SetBytes(n * 8)
				for i := 0; i < b.N; i++ {
					c.Compress(data)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/decompress", c.Name(), name), func(b *testing.B) {
				b.SetBytes(n * 8)
				for i := 0; i < b.N; i++ {
					if _, err := c.Decompress(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
