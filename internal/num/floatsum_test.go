package num

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// exactSum is the reference for FloatSum: the specials by the same
// rules, otherwise the exact sum of xs in math/big rounded once to
// nearest even, and a zero sum as +0.
func exactSum(xs []float64) float64 {
	var nan, pos, negInf bool
	sum := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		switch {
		case x != x:
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			negInf = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case nan || pos && negInf:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	case sum.Sign() == 0:
		return 0
	}
	f, _ := sum.Float64()
	return f
}

// addAll folds every value of xs into s.
func addAll(s *FloatSum, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func sumOf(xs []float64) float64 {
	var s FloatSum
	addAll(&s, xs)
	return s.Value()
}

// bitSpan returns the absolute positions (0 = 2^-1074) of x's leading
// and lowest set bits.
func bitSpan(x float64) (lead, low int) {
	b := math.Float64bits(x)
	e, m := int(b>>52)&0x7ff, b&(1<<52-1)
	if e != 0 {
		m |= 1 << 52
		e--
	}
	return e + 63 - bits.LeadingZeros64(m), e + bits.TrailingZeros64(m)
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestFloatSumTable pins the accumulator's edges: subnormals, overflow to
// ±Inf, the specials, rounding ties, the 2^96 window and zeros.
func TestFloatSumTable(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	big1 := math.Ldexp(1, 60)
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"zeros", []float64{0, 0}, 0},
		{"negative zeros are +0", []float64{math.Copysign(0, -1), math.Copysign(0, -1)}, 0},
		{"cancellation is +0", []float64{1.5, -1.5}, 0},
		{"subnormals", []float64{tiny, tiny, 3 * tiny}, 5 * tiny},
		{"subnormals reach normal", []float64{math.Ldexp(1, -1023), math.Ldexp(1, -1023)}, math.Ldexp(1, -1022)},
		{"max overflows to +Inf", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"-max overflows to -Inf", []float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{"max and back", []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{"+Inf", []float64{1, math.Inf(1), 2}, math.Inf(1)},
		{"-Inf", []float64{math.Inf(-1), 1e300}, math.Inf(-1)},
		{"+Inf with -Inf", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{"NaN", []float64{1, math.NaN(), math.Inf(1)}, math.NaN()},
		{"one rounding, tie to even", []float64{1, math.Ldexp(1, -53)}, 1},
		{"one rounding, tie broken by a low bit", []float64{1, math.Ldexp(1, -53), math.Ldexp(1, -70)}, 1 + math.Ldexp(1, -52)},
		{"order would round twice", []float64{math.Ldexp(1, -53), 1, math.Ldexp(1, -53)}, 1 + math.Ldexp(1, -52)},
		{"within the window", []float64{big1, 1, -big1}, 1},
		// Cancellation beyond the window is documented, not fixed: 1 lies
		// below the 96-bit window under 2^120 and is dropped.
		{"cancellation beyond the window", []float64{math.Ldexp(1, 120), 1, -math.Ldexp(1, 120)}, 0},
	}
	for _, c := range cases {
		if got := sumOf(c.xs); !sameBits(got, c.want) {
			t.Errorf("%s: sum = %x (%g), want %x (%g)", c.name, math.Float64bits(got), got, math.Float64bits(c.want), c.want)
		}
		if c.name != "cancellation beyond the window" {
			if ref := exactSum(c.xs); !sameBits(ref, c.want) {
				t.Errorf("%s: the reference says %g, the table %g", c.name, ref, c.want)
			}
		}
	}
}

// TestFloatSumMatchesBigOnAmounts: bench-like amounts (cents of 1.00 …
// 10 000.00) sum to the correctly rounded exact sum, whatever the order
// and however the inputs are split and merged.
func TestFloatSumMatchesBigOnAmounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = float64(100+rng.IntN(999_900)) / 100
	}
	want := exactSum(xs)
	var ref FloatSum
	addAll(&ref, xs)
	if got := ref.Value(); got != want {
		t.Fatalf("sum = %x, math/big %x", math.Float64bits(got), math.Float64bits(want))
	}
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		a, b := rng.IntN(len(xs)), rng.IntN(len(xs))
		a, b = min(a, b), max(a, b)
		var parts [3]FloatSum
		addAll(&parts[0], xs[:a])
		addAll(&parts[1], xs[a:b])
		addAll(&parts[2], xs[b:])
		parts[2].Merge(parts[0])
		parts[2].Merge(parts[1])
		if parts[2] != ref {
			t.Fatalf("trial %d: shuffled 3-way split state %+v, serial %+v", trial, parts[2], ref)
		}
	}
}

// BenchmarkFloatSum: the accumulator's per-value cost on bench-like
// amounts, against which a plain += costs well under a nanosecond.
func BenchmarkFloatSum(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = float64(100+rng.IntN(999_900)) / 100
	}
	for i := 0; i < b.N; i++ {
		var s FloatSum
		addAll(&s, xs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/value")
}

// FuzzFloatSum: any values, in any order and any split into two merged
// halves, reach one state; where no bit leaves the window its value is
// math/big's.
func FuzzFloatSum(f *testing.F) {
	enc := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(1, 2, 3), uint64(0), uint8(1))
	f.Add(enc(0.1, 0.2, 0.3, -0.6), uint64(7), uint8(2))
	f.Add(enc(math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64), uint64(3), uint8(1))
	f.Add(enc(math.SmallestNonzeroFloat64, -0.0, 1e-310, math.Inf(1)), uint64(9), uint8(3))
	f.Add(enc(1e300, 1, -1e300, math.NaN()), uint64(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, cut uint8) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		var serial FloatSum
		addAll(&serial, xs)
		perm := append([]float64(nil), xs...)
		rand.New(rand.NewPCG(seed, 0)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		k := 0
		if len(perm) > 0 {
			k = int(cut) % (len(perm) + 1)
		}
		var a, b FloatSum
		addAll(&a, perm[:k])
		addAll(&b, perm[k:])
		b.Merge(a)
		if b != serial {
			t.Fatalf("state depends on order or split: %+v vs %+v", b, serial)
		}
		// Where every finite input's lowest set bit lies within 2^64 of the
		// largest leading bit, nothing leaves the window.
		lead, low := math.MinInt, math.MaxInt
		for _, x := range xs {
			if x != 0 && !math.IsInf(x, 0) && x == x {
				l, o := bitSpan(x)
				lead, low = max(lead, l), min(low, o)
			}
		}
		if low >= lead-64 {
			if got, want := serial.Value(), exactSum(xs); !sameBits(got, want) {
				t.Fatalf("sum = %x (%g), math/big %x (%g)", math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	})
}
