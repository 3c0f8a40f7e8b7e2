package workload

import (
	"math"
	"sort"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce the absorbing all-zero stream")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets, n = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d count %d deviates >10%% from %g", b, c, want)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	p := make([]int, 100)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Shuffle not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestNormAndExpMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sum2, esum float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
		esum += r.ExpFloat64()
	}
	if m := sum / n; math.Abs(m) > 0.02 {
		t.Errorf("normal mean %g too far from 0", m)
	}
	if v := sum2 / n; math.Abs(v-1) > 0.05 {
		t.Errorf("normal variance %g too far from 1", v)
	}
	if m := esum / n; math.Abs(m-1) > 0.05 {
		t.Errorf("exponential mean %g too far from 1", m)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(r, 1.1, 1000)
	counts := make(map[int]int)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be hotter than rank 10, which must be hotter than rank 100.
	if !(counts[0] > counts[10] && counts[10] > counts[100]) {
		t.Errorf("zipf not skewed: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
	// With s=1.1 over 1000 items the top-10 should draw a large share.
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if frac := float64(top) / n; frac < 0.3 {
		t.Errorf("top-10 fraction %g suspiciously low for s=1.1", frac)
	}
}

func TestZipfHotFraction(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(r, 1.2, 10000)
	const hot, m = 100, 50000
	c := 0
	for i := 0; i < m; i++ {
		if z.Next() < hot {
			c++
		}
	}
	if f := float64(c) / m; f < 0.3 || f > 0.95 {
		t.Errorf("hot fraction %g outside plausible band", f)
	}
}

func TestGenOrdersShape(t *testing.T) {
	o := GenOrders(1, 5000, 200, 1.1)
	if len(o.OrderID) != 5000 || len(o.Amount) != 5000 {
		t.Fatal("wrong lengths")
	}
	for i, id := range o.OrderID {
		if id != int64(i)+1 {
			t.Fatal("order ids must be dense ascending")
		}
	}
	for i := range o.CustKey {
		if o.CustKey[i] < 0 || o.CustKey[i] >= 200 {
			t.Fatalf("custkey out of range: %d", o.CustKey[i])
		}
		if o.Region[i] < 0 || o.Region[i] >= int64(len(RegionNames)) {
			t.Fatalf("region out of range: %d", o.Region[i])
		}
		if o.Amount[i] < 1 || o.Amount[i] > 10000 {
			t.Fatalf("amount out of range: %g", o.Amount[i])
		}
	}
	if !sort.SliceIsSorted(o.OrderDay, func(i, j int) bool { return o.OrderDay[i] < o.OrderDay[j] }) {
		t.Error("order days must be non-decreasing")
	}
}

func TestGenSensorShape(t *testing.T) {
	s := GenSensor(2, 10000, 16, 1000)
	for i := 1; i < len(s.TS); i++ {
		if s.TS[i] < s.TS[i-1] {
			t.Fatal("sensor timestamps must be non-decreasing")
		}
	}
	for _, d := range s.Device {
		if d < 0 || d >= 16 {
			t.Fatalf("device out of range: %d", d)
		}
	}
}

func TestGenClicksShape(t *testing.T) {
	c := GenClicks(3, 8000, 500, 2000)
	for i := 1; i < len(c.TS); i++ {
		if c.TS[i] < c.TS[i-1] {
			t.Fatal("click timestamps must be non-decreasing")
		}
	}
	for i := range c.User {
		if c.User[i] < 0 || c.User[i] >= 500 || c.URL[i] < 0 || c.URL[i] >= 2000 {
			t.Fatal("click ids out of range")
		}
		if c.Dur[i] < 0 {
			t.Fatal("negative dwell time")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(100)
	s := r.Split()
	a, b := r.Uint64(), s.Uint64()
	if a == b {
		t.Error("split streams should diverge immediately")
	}
}
