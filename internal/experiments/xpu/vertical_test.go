package xpu

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vec"
	"repro/internal/workload"
)

func TestVerticalGetRoundTrip(t *testing.T) {
	for _, width := range []int{1, 4, 8, 13, 16, 24, 63} {
		n := 300
		rng := workload.NewRNG(uint64(width))
		max := uint64(1)<<uint(width) - 1
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (max + 1)
		}
		v := NewVertical(vals, width)
		if v.Len() != n || v.Width() != width {
			t.Fatalf("width %d: bad metadata", width)
		}
		for i, want := range vals {
			if got := v.Get(i); got != want {
				t.Fatalf("width %d: Get(%d) = %d want %d", width, i, got, want)
			}
		}
	}
}

func TestVerticalScanMatchesScalar(t *testing.T) {
	ops := []vec.CmpOp{vec.LT, vec.LE, vec.GT, vec.GE, vec.EQ, vec.NE}
	for _, width := range []int{4, 8, 12, 16} {
		n := 1000
		rng := workload.NewRNG(uint64(width) * 13)
		max := uint64(1)<<uint(width) - 1
		vals := make([]uint64, n)
		ints := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (max + 1)
			ints[i] = int64(vals[i])
		}
		v := NewVertical(vals, width)
		for _, op := range ops {
			for _, c := range []uint64{0, 1, max / 2, max - 1, max, max + 1} {
				got := vec.NewBitvec(n)
				v.Scan(op, c, got)
				want := vec.NewBitvec(n)
				vec.ScanBranching(ints, op, int64(c), want)
				if !reflect.DeepEqual(got.Words(), want.Words()) {
					t.Fatalf("width %d op %v c=%d: vertical scan disagrees (got %d want %d)",
						width, op, c, got.Count(), want.Count())
				}
			}
		}
	}
}

func TestVerticalMatchesHorizontalProperty(t *testing.T) {
	// Property: the two SIMD-substitute layouts agree on every predicate.
	f := func(seed uint64, rawWidth uint8, rawC uint64, rawOp uint8) bool {
		width := int(rawWidth)%16 + 1
		max := uint64(1)<<uint(width) - 1
		c := rawC % (max + 2)
		op := vec.CmpOp(int(rawOp) % 6)
		rng := workload.NewRNG(seed)
		n := 64 + int(seed%300)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (max + 1)
		}
		h := vec.NewPacked(vals, width)
		v := NewVertical(vals, width)
		a, b := vec.NewBitvec(n), vec.NewBitvec(n)
		h.Scan(op, c, a)
		v.Scan(op, c, b)
		return reflect.DeepEqual(a.Words(), b.Words())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerticalEarlyExit(t *testing.T) {
	// With a constant whose MSB is 0 and data whose MSB is mostly 1, most
	// words decide after ~1 plane.
	width := 16
	n := 64 * 64
	vals := make([]uint64, n)
	rng := workload.NewRNG(7)
	for i := range vals {
		vals[i] = 1<<15 | rng.Uint64()&0x7FFF // MSB always set
	}
	v := NewVertical(vals, width)
	planes := v.PlanesTouched(0x0123) // MSB clear: diverges at plane 0
	if planes > 1.01 {
		t.Errorf("expected ~1 plane touched, got %g", planes)
	}
	// A constant sharing the MSB requires more planes.
	deeper := v.PlanesTouched(1<<15 | 0x0123)
	if deeper <= planes {
		t.Errorf("shared-prefix constant must touch more planes: %g vs %g", deeper, planes)
	}
}

func TestVerticalRejectsBadInput(t *testing.T) {
	for _, w := range []int{0, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d must panic", w)
				}
			}()
			NewVertical([]uint64{0}, w)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized value must panic")
		}
	}()
	NewVertical([]uint64{8}, 3)
}

func TestVerticalEmpty(t *testing.T) {
	v := NewVertical(nil, 8)
	out := vec.NewBitvec(0)
	v.Scan(vec.EQ, 3, out) // must not panic
	if v.PlanesTouched(3) != 0 {
		t.Error("empty vertical touches no planes")
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
	h := vec.NewPacked(vals, width)
	v := NewVertical(vals, width)
	b.Run("horizontal-earlydiverge", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			h.Scan(vec.LT, 0x1000, out)
		}
	})
	b.Run("vertical-earlydiverge", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			v.Scan(vec.LT, 0x1000, out)
		}
	})
	b.Run("horizontal-deep", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			h.Scan(vec.LT, 1<<15|0x4000, out)
		}
	})
	b.Run("vertical-deep", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out := vec.NewBitvec(n)
			v.Scan(vec.LT, 1<<15|0x4000, out)
		}
	})
}
