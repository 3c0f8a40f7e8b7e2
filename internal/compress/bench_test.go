package compress

import (
	"testing"

	"repro/internal/experiments/synth"
)

// BenchmarkAdvisor measures the cost of choosing a codec from statistics.
func BenchmarkAdvisor(b *testing.B) {
	data := synth.RunsInts(5, 1<<16, 8, 50)
	b.SetBytes(1 << 19)
	for i := 0; i < b.N; i++ {
		Choose(Analyze(data).Stats)
	}
}
