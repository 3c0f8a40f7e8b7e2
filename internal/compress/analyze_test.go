package compress

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/workload"
)

// mapAnalyze is the map-based Analyze the O(N) profile replaced, kept as
// its oracle: a per-value set that stops growing at DistinctCap.
func mapAnalyze(values []int64) Stats {
	s := Stats{N: len(values), Sorted: true, Runs: 0}
	if len(values) == 0 {
		return s
	}
	s.Min, s.Max = values[0], values[0]
	s.Runs = 1
	distinct := make(map[int64]struct{})
	distinct[values[0]] = struct{}{}
	for i := 1; i < len(values); i++ {
		v := values[i]
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		if v < values[i-1] {
			s.Sorted = false
		}
		if v != values[i-1] {
			s.Runs++
		}
		if len(distinct) < DistinctCap {
			distinct[v] = struct{}{}
		}
	}
	s.Distinct = len(distinct)
	s.DistinctCapped = len(distinct) >= DistinctCap
	s.AvgRun = float64(s.N) / float64(s.Runs)
	return s
}

// checkProfile compares Analyze with the oracle and checks that Dict
// encodes values: an ascending duplicate-free dictionary holding every
// value once, and codes that index it.
func checkProfile(t *testing.T, label string, values []int64) {
	t.Helper()
	p := Analyze(values)
	if want := mapAnalyze(values); !reflect.DeepEqual(p.Stats, want) {
		t.Fatalf("%s: Analyze = %+v, oracle %+v", label, p.Stats, want)
	}
	dict, codes := p.Dict(values)
	if len(codes) != len(values) {
		t.Fatalf("%s: %d codes for %d values", label, len(codes), len(values))
	}
	for i := 1; i < len(dict); i++ {
		if dict[i] <= dict[i-1] {
			t.Fatalf("%s: dictionary not strictly ascending at %d: %d, %d", label, i, dict[i-1], dict[i])
		}
	}
	for i, v := range values {
		if codes[i] >= uint64(len(dict)) || dict[codes[i]] != v {
			t.Fatalf("%s: row %d = %d encodes as code %d of %d", label, i, v, codes[i], len(dict))
		}
	}
	if !p.DistinctCapped && len(dict) != p.Distinct {
		t.Fatalf("%s: dictionary holds %d values, Distinct %d", label, len(dict), p.Distinct)
	}
}

// TestAnalyzeMatchesMapOracle covers each way Analyze counts — sorted,
// bounded range, sort — at lengths on both sides of DistinctCap, over the
// full int64 range, negatives, and all-equal input.
func TestAnalyzeMatchesMapOracle(t *testing.T) {
	rng := workload.NewRNG(34)
	fill := func(n int, f func(i int) int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	cases := map[string][]int64{
		"empty":            nil,
		"one":              {-5},
		"all-equal":        fill(1000, func(int) int64 { return 42 }),
		"all-equal-min":    fill(70000, func(int) int64 { return math.MinInt64 }),
		"extremes":         {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64},
		"full-range":       fill(5000, func(int) int64 { return int64(rng.Uint64()) }),
		"negatives":        fill(5000, func(int) int64 { return -int64(rng.Intn(300)) - 1e12 }),
		"sorted-neg":       fill(3000, func(i int) int64 { return int64(i/3) - 1000 }),
		"runs":             fill(4000, func(i int) int64 { return int64(i/8%5) - 2 }),
		"span-at-bitset":   fill(64, func(i int) int64 { return int64(i * 63 % 4096) }),
		"span-past-bitset": fill(64, func(i int) int64 { return int64(i * 65 % 4161) }),
	}
	for _, n := range []int{DistinctCap - 1, DistinctCap, DistinctCap + 1, 3 * DistinctCap} {
		// Every value distinct, unsorted: bitset (dense) and sort (wide).
		cases["dense-"+strconv.Itoa(n)] = fill(n, func(i int) int64 { return int64((i * 7919) % n) })
		cases["wide-"+strconv.Itoa(n)] = fill(n, func(i int) int64 { return int64(uint64(i) * 0x9E3779B97F4A7C15) })
		cases["sorted-"+strconv.Itoa(n)] = fill(n, func(i int) int64 { return int64(i) * 3 })
		cases["dup-wide-"+strconv.Itoa(n)] = fill(n, func(i int) int64 { return int64(uint64(i%(n/2)) * 0x9E3779B97F4A7C15) })
	}
	for label, v := range cases {
		checkProfile(t, label, v)
	}
}

// FuzzAnalyze checks Analyze and Dict against the oracle on arbitrary
// vectors: 8 bytes per value, with the last byte's low bits narrowing the
// range so that every counting path is reached.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(60))
	f.Add(slices.Repeat([]byte{0xff, 0, 0x80}, 40), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		values := make([]int64, len(data)/8)
		for i := range values {
			values[i] = int64(binary.LittleEndian.Uint64(data[i*8:])) >> (shift % 64)
		}
		checkProfile(t, "fuzz", values)
	})
}
