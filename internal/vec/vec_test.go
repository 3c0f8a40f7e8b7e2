package vec

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

func TestBitvecBasics(t *testing.T) {
	b := NewBitvec(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitvec must be empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Set/Get broken")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("Clear broken")
	}
	if got := b.AppendIndices(nil); !reflect.DeepEqual(got, []int32{0, 129}) {
		t.Fatalf("AppendIndices = %v", got)
	}
	if got := b.AppendIndices([]int32{7}); !reflect.DeepEqual(got, []int32{7, 0, 129}) {
		t.Fatalf("AppendIndices onto a buffer = %v", got)
	}
}

func TestBitvecAlgebra(t *testing.T) {
	a, b := NewBitvec(100), NewBitvec(100)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	i := a.Clone()
	i.And(b)
	if i.Count() != 1 || !i.Get(2) {
		t.Fatal("and broken")
	}
	n := a.Clone()
	n.Not()
	if n.Count() != 98 || n.Get(1) {
		t.Fatal("not broken (tail bits must stay clear)")
	}
}

func TestBitvecNotTailMask(t *testing.T) {
	// De Morgan on a non-word-aligned length: tail bits must never leak.
	f := func(n uint8, set []uint16) bool {
		ln := int(n)%150 + 1
		b := NewBitvec(ln)
		for _, s := range set {
			b.Set(int(s) % ln)
		}
		c := b.Clone()
		c.Not()
		return b.Count()+c.Count() == ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitvecSetAllReset(t *testing.T) {
	b := NewBitvec(70)
	b.SetAll()
	if b.Count() != 70 {
		t.Fatalf("SetAll count = %d", b.Count())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset must clear")
	}
}

func TestPackedGetRoundTrip(t *testing.T) {
	for _, width := range []int{1, 3, 8, 12, 16, 21, 24, 31, 33, 63} {
		n := 257
		rng := workload.NewRNG(uint64(width))
		max := uint64(1)<<uint(width) - 1
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (max + 1)
		}
		p := NewPacked(vals, width)
		if p.Len() != n || p.Width() != width {
			t.Fatalf("width %d: bad metadata", width)
		}
		for i, v := range vals {
			if got := p.Get(i); got != v {
				t.Fatalf("width %d: Get(%d) = %d want %d", width, i, got, v)
			}
		}
		// Unpack is Get in bulk, from any offset to any end — word-aligned
		// or not, including the short last word.
		for _, w := range [][2]int{{0, n}, {1, n}, {0, n - 1}, {5, 6}, {63, 200}, {n, n}} {
			out := make([]int64, w[1]-w[0])
			p.Unpack(w[0], w[1], out)
			for i, got := range out {
				if uint64(got) != vals[w[0]+i] {
					t.Fatalf("width %d: Unpack(%d,%d)[%d] = %d want %d", width, w[0], w[1], i, got, vals[w[0]+i])
				}
			}
		}
	}
}

func TestPackedScanMatchesScalarAllOps(t *testing.T) {
	ops := []CmpOp{LT, LE, GT, GE, EQ, NE}
	for _, width := range []int{4, 8, 12, 16, 24} {
		n := 1000
		rng := workload.NewRNG(uint64(width) * 7)
		max := uint64(1)<<uint(width) - 1
		vals := make([]uint64, n)
		ints := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (max + 1)
			ints[i] = int64(vals[i])
		}
		p := NewPacked(vals, width)
		consts := []uint64{0, 1, max / 2, max - 1, max}
		for _, op := range ops {
			for _, c := range consts {
				got := NewBitvec(n)
				p.Scan(op, c, got)
				want := NewBitvec(n)
				ScanBranching(ints, op, int64(c), want)
				if !reflect.DeepEqual(got.Words(), want.Words()) {
					t.Fatalf("width %d op %v c=%d: packed scan disagrees with scalar (got %d want %d matches)",
						width, op, c, got.Count(), want.Count())
				}
			}
		}
	}
}

func TestPackedScanProperty(t *testing.T) {
	// Property: for random widths, values, constants and ops, the packed
	// scan equals the branching scan.
	f := func(seed uint64, rawWidth uint8, rawC uint64, rawOp uint8) bool {
		width := int(rawWidth)%20 + 1
		max := uint64(1)<<uint(width) - 1
		c := rawC % (max + 2) // allow one past max to exercise clamping
		op := CmpOp(int(rawOp) % 6)
		rng := workload.NewRNG(seed)
		n := 100 + int(seed%200)
		vals := make([]uint64, n)
		ints := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (max + 1)
			ints[i] = int64(vals[i])
		}
		p := NewPacked(vals, width)
		got := NewBitvec(n)
		p.Scan(op, c, got)
		want := NewBitvec(n)
		ScanBranching(ints, op, int64(c), want)
		return reflect.DeepEqual(got.Words(), want.Words())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScanBetween(t *testing.T) {
	width := 10
	n := 500
	rng := workload.NewRNG(99)
	max := uint64(1)<<uint(width) - 1
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() % (max + 1)
	}
	p := NewPacked(vals, width)
	lo, hi := uint64(100), uint64(600)
	got := NewBitvec(n)
	p.ScanBetween(lo, hi, got)
	for i, v := range vals {
		want := v >= lo && v <= hi
		if got.Get(i) != want {
			t.Fatalf("between mismatch at %d: v=%d", i, v)
		}
	}
	// Degenerate bands.
	empty := NewBitvec(n)
	p.ScanBetween(5, 2, empty)
	if empty.Count() != 0 {
		t.Error("inverted band must be empty")
	}
	all := NewBitvec(n)
	p.ScanBetween(0, max+100, all)
	if all.Count() != n {
		t.Error("full band must match everything")
	}
}

func TestPredicatedMatchesBranching(t *testing.T) {
	vals := synth.UniformInts(42, 2000, 1<<20)
	for _, op := range []CmpOp{LT, LE, GT, GE, EQ, NE} {
		a := NewBitvec(len(vals))
		b := NewBitvec(len(vals))
		ScanBranching(vals, op, 1<<19, a)
		ScanPredicated(vals, op, 1<<19, b)
		if !reflect.DeepEqual(a.Words(), b.Words()) {
			t.Fatalf("op %v: predicated scan disagrees with branching", op)
		}
	}
}

func TestCmpOpString(t *testing.T) {
	want := map[CmpOp]string{LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "=", NE: "<>"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q want %q", op, op.String(), s)
		}
	}
}

func TestPackedRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 64, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d must panic", w)
				}
			}()
			NewPacked([]uint64{1}, w)
		}()
	}
}

func TestPackedScanEmptyInput(t *testing.T) {
	p := NewPacked(nil, 8)
	out := NewBitvec(0)
	p.Scan(LT, 5, out) // must not panic
	if out.Count() != 0 {
		t.Fatal("empty scan must match nothing")
	}
}

func TestBitvecSetRange(t *testing.T) {
	const n = 300
	ranges := [][2]int{
		{0, 0}, {0, 1}, {0, 64}, {0, 65}, {0, n},
		{1, 63}, {63, 64}, {63, 65}, {64, 128}, {64, 129},
		{5, 5}, {17, 250}, {128, 192}, {299, 300}, {250, 299},
	}
	for _, r := range ranges {
		got := NewBitvec(n)
		got.SetRange(r[0], r[1])
		want := NewBitvec(n)
		for i := r[0]; i < r[1]; i++ {
			want.Set(i)
		}
		if !reflect.DeepEqual(got.Words(), want.Words()) {
			t.Fatalf("SetRange(%d,%d) mismatch: got %d bits want %d",
				r[0], r[1], got.Count(), want.Count())
		}
	}
	// Ranges must OR into existing bits, not overwrite them.
	b := NewBitvec(n)
	b.Set(2)
	b.SetRange(100, 200)
	if !b.Get(2) || b.Count() != 101 {
		t.Fatalf("SetRange must preserve existing bits: count %d", b.Count())
	}
}
