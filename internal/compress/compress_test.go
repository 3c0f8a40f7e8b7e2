package compress

import (
	"reflect"
	"testing"

	"repro/internal/experiments/synth"
)

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1 << 63: 64}
	for in, want := range cases {
		if got := BitsFor(in); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRunsEncodeDecode(t *testing.T) {
	vals := []int64{1, 1, 1, 2, 3, 3}
	runs := EncodeRuns(vals)
	want := []Run{{1, 3}, {2, 1}, {3, 2}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("EncodeRuns = %v, want %v", runs, want)
	}
	var decoded []int64
	for _, r := range runs {
		for i := uint32(0); i < r.Length; i++ {
			decoded = append(decoded, r.Value)
		}
	}
	if !reflect.DeepEqual(decoded, vals) {
		t.Fatal("expanded runs mismatch")
	}
	if EncodeRuns(nil) != nil {
		t.Fatal("empty input should give nil runs")
	}
}

func TestAnalyzeAndChoose(t *testing.T) {
	runs := synth.RunsInts(21, 10000, 4, 100)
	if c := Choose(Analyze(runs).Stats); c != RLE {
		t.Errorf("run data should choose rle, got %s", c)
	}
	sorted := synth.SortedInts(22, 10000, 10)
	if c := Choose(Analyze(sorted).Stats); c != Delta {
		t.Errorf("sorted data should choose delta, got %s", c)
	}
	lowCard := synth.UniformInts(23, 10000, 50)
	ch := Choose(Analyze(lowCard).Stats)
	if ch != Dict && ch != RLE {
		t.Errorf("low-cardinality data should choose dict (or rle), got %s", ch)
	}
	uniform := synth.UniformInts(24, 10000, 1<<50)
	if c := Choose(Analyze(uniform).Stats); c != Bitpack {
		t.Errorf("uniform wide data should choose bitpack, got %s", c)
	}
	if c := Choose(Analyze(nil).Stats); c != Raw {
		t.Errorf("empty data should choose raw, got %s", c)
	}
}

func TestAnalyzeStats(t *testing.T) {
	s := Analyze([]int64{3, 3, 1, 5, 5, 5})
	if s.N != 6 || s.Min != 1 || s.Max != 5 || s.Runs != 3 || s.Sorted {
		t.Fatalf("bad stats: %+v", s)
	}
	s2 := Analyze([]int64{1, 2, 3})
	if !s2.Sorted || s2.Distinct != 3 {
		t.Fatalf("bad stats: %+v", s2)
	}
}

// TestAnalyzeDistinctSaturation: the distinct counter saturates at
// DistinctCap; the result must say so instead of posing as exact, and
// the advisor must not choose dict off a saturated (lower-bound) count.
func TestAnalyzeDistinctSaturation(t *testing.T) {
	small := Analyze(synth.UniformInts(3, 1000, 100))
	if small.DistinctCapped {
		t.Error("100-distinct input must not saturate")
	}
	if small.Distinct < 90 || small.Distinct > 100 {
		t.Errorf("small distinct count off: %d", small.Distinct)
	}

	// An all-distinct input larger than 8*DistinctCap: the saturated
	// count (DistinctCap) would satisfy the dict arm's Distinct <= N/8,
	// but the true cardinality (= N) makes a dictionary useless.  The
	// capped flag must steer the advisor away.
	n := 8*DistinctCap + 1000
	big := make([]int64, n)
	for i := range big {
		// Bijective mix: all values distinct, order scrambled (a plain
		// i*const stays sorted and would divert the advisor to delta).
		h := uint64(i) * 0x9E3779B97F4A7C15
		big[i] = int64(h ^ h>>29)
	}
	st := Analyze(big)
	if !st.DistinctCapped {
		t.Fatalf("%d distinct values must saturate the cap (%d): %+v", n, DistinctCap, st.Stats)
	}
	if st.Distinct != DistinctCap {
		t.Errorf("saturated count must equal the cap: %d vs %d", st.Distinct, DistinctCap)
	}
	if got := Choose(st.Stats); got == Dict {
		t.Errorf("advisor chose dict off a saturated distinct count")
	}
}
