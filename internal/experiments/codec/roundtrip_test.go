package codec

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments/synth"
)

// adversarialInputs are the inputs most likely to break a codec: empty,
// one run, all-distinct, the int64 extremes (frame-of-reference and
// zigzag overflow territory), and sorted deltas with extreme jumps.
func adversarialInputs() map[string][]int64 {
	allDistinct := make([]int64, 5000)
	for i := range allDistinct {
		allDistinct[i] = int64(i)*2654435761 + 12345 // distinct, unordered
	}
	return map[string][]int64{
		"empty":        {},
		"single":       {42},
		"single-run":   {7, 7, 7, 7, 7, 7, 7, 7},
		"two-runs":     append(make([]int64, 300), 1),
		"all-distinct": allDistinct,
		"minmax": {math.MinInt64, math.MaxInt64, 0, -1, 1,
			math.MinInt64, math.MaxInt64},
		"minmax-run":   {math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64},
		"sorted-small": synth.SortedInts(9, 3000, 3),
		"sorted-jumps": {math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64},
		"neg-sorted":   {-1000, -100, -10, -1, 0, 1, 10},
	}
}

// TestCodecsRoundTripAdversarial round-trips every registered codec over
// every adversarial input: byte-exact values back, no panics, no silent
// truncation.
func TestCodecsRoundTripAdversarial(t *testing.T) {
	for name, in := range adversarialInputs() {
		for _, c := range All() {
			payload := c.Compress(in)
			got, err := c.Decompress(payload)
			if err != nil {
				t.Errorf("%s/%s: decompress: %v", c.Name(), name, err)
				continue
			}
			if len(in) == 0 {
				if len(got) != 0 {
					t.Errorf("%s/%s: empty input decoded to %d values", c.Name(), name, len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, in) {
				t.Errorf("%s/%s: round trip mismatch (%d values in, %d out)",
					c.Name(), name, len(in), len(got))
			}
		}
	}
}
