package workload

import "testing"

// Golden determinism tests: the arrival and key-skew generators feed the
// multi-query scheduler's open-loop experiments (E21), so their output
// for a fixed seed is pinned EXACTLY — not just statistically — here.
// If one of these fails, a generator change silently re-randomized every
// scheduler experiment and benchmark baseline; bump the goldens only
// with a deliberate, documented regeneration.

// TestZipfGolden pins the first draws of Zipf(seed=11, s=1.2, n=1000).
func TestZipfGolden(t *testing.T) {
	want := []int{0, 0, 35, 16, 1, 108, 0, 1, 92, 30, 7, 758, 208, 220, 3, 0}
	z := NewZipf(NewRNG(11), 1.2, 1000)
	for i, w := range want {
		if got := z.Next(); got != w {
			t.Fatalf("draw %d = %d, want %d (generator drifted)", i, got, w)
		}
	}
}

// TestRNGGolden pins the raw xorshift64* stream for seed 3.
func TestRNGGolden(t *testing.T) {
	want := []uint64{
		0xd7ae6ae29c469757, 0x36ef3faa16c2f57, 0x7ea6881efb390c74,
		0xf3b992dee735f7ba, 0x7b26c208c4d83157, 0xd5150685c434f264,
	}
	r := NewRNG(3)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("word %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestGenOrdersGolden pins GenOrders(42, ...) via order-sensitive hashes
// of the Zipf key column and the amount column.
func TestGenOrdersGolden(t *testing.T) {
	o := GenOrders(42, 1000, 20, 1.1)
	wantHead := []int64{4, 0, 3, 1, 3, 6, 8, 1}
	for i, w := range wantHead {
		if o.CustKey[i] != w {
			t.Fatalf("custkey[%d] = %d, want %d", i, o.CustKey[i], w)
		}
	}
	var hc, hd int64
	for i := 0; i < 1000; i++ {
		hc = hc*1315423911 + o.CustKey[i]
		hd = hd*1315423911 + int64(o.Amount[i]*1e6)
	}
	if hc != 5079450840258871181 {
		t.Fatalf("custkey hash = %d (generator drifted)", hc)
	}
	if hd != -2868178792813073573 {
		t.Fatalf("amount hash = %d (generator drifted)", hd)
	}
}
