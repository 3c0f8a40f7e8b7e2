package colstore

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/experiments/synth"
	"repro/internal/vec"
)

var allOps = []vec.CmpOp{vec.LT, vec.LE, vec.GT, vec.GE, vec.EQ, vec.NE}

// windows exercises aligned, unaligned, segment-crossing, and degenerate
// row ranges over a column of n rows.
func windows(n int) [][2]int {
	w := [][2]int{{0, n}, {0, 0}}
	if n > 100 {
		w = append(w, [2]int{0, 100}, [2]int{n - 100, n}, [2]int{n / 3, 2 * n / 3}, [2]int{17, n - 13})
	}
	if n > SegSize {
		w = append(w, [2]int{SegSize - 5, SegSize + 5}, [2]int{0, SegSize}, [2]int{SegSize, n})
	}
	return w
}

// wantWindow runs the whole-column reference scan and cuts out the
// window.
func wantWindow(full *vec.Bitvec, lo, hi int) []int {
	var want []int
	for i := lo; i < hi; i++ {
		if bit(full, i) {
			want = append(want, i-lo)
		}
	}
	return want
}

func checkBits(t *testing.T, got *vec.Bitvec, want []int, label string) {
	t.Helper()
	gi := got.AppendIndices(nil)
	if len(gi) != len(want) {
		t.Fatalf("%s: got %d matches, want %d", label, len(gi), len(want))
	}
	for i := range want {
		if int(gi[i]) != want[i] {
			t.Fatalf("%s: match %d at %d, want %d", label, i, gi[i], want[i])
		}
	}
}

func TestIntScanRowsMatchesScan(t *testing.T) {
	// Mixed layout: one sealed range followed by unsealed appends.
	c := NewIntColumn()
	n := SegSize + 5000
	for i := 0; i < n; i++ {
		c.Append(int64(i*7) % 1000)
	}
	c.Seal()
	for i := 0; i < 3000; i++ {
		c.Append(int64(i) % 1000)
	}
	n = c.Len()
	for _, op := range allOps {
		for _, cval := range []int64{-5, 0, 500, 999, 2000} {
			full := vec.NewBitvec(n)
			c.ScanRows(op, cval, 0, n, full)
			for _, w := range windows(n) {
				lo, hi := w[0], w[1]
				out := vec.NewBitvec(hi - lo)
				c.ScanRows(op, cval, lo, hi, out)
				checkBits(t, out, wantWindow(full, lo, hi),
					fmt.Sprintf("int op=%v c=%d [%d,%d)", op, cval, lo, hi))
			}
		}
	}
}

// TestFloatScanRowsMatchesScan checks every window against a per-row
// comparison; every 101st row is a NaN, which matches only NE.
func TestFloatScanRowsMatchesScan(t *testing.T) {
	c := NewFloatColumn()
	n := 70_000
	for i := 0; i < n; i++ {
		v := float64(i%997) / 3
		if i%101 == 0 {
			v = math.NaN()
		}
		c.Append(v)
	}
	cmp := map[vec.CmpOp]func(a, b float64) bool{
		vec.LT: func(a, b float64) bool { return a < b },
		vec.LE: func(a, b float64) bool { return a <= b },
		vec.GT: func(a, b float64) bool { return a > b },
		vec.GE: func(a, b float64) bool { return a >= b },
		vec.EQ: func(a, b float64) bool { return a == b },
		vec.NE: func(a, b float64) bool { return a != b },
	}
	for _, op := range allOps {
		full := vec.NewBitvec(n)
		for i := 0; i < n; i++ {
			if cmp[op](c.Get(i), 150.5) {
				full.Set(i)
			}
		}
		for _, w := range windows(n) {
			lo, hi := w[0], w[1]
			out := vec.NewBitvec(hi - lo)
			c.ScanRows(op, 150.5, lo, hi, out)
			checkBits(t, out, wantWindow(full, lo, hi),
				fmt.Sprintf("float op=%v [%d,%d)", op, lo, hi))
		}
	}
}

func TestStringScanRowsSemantics(t *testing.T) {
	names := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	build := func(seal bool) *StringColumn {
		c := NewStringColumn()
		n := SegSize + 2000
		for i := 0; i < n; i++ {
			c.Append(names[i%len(names)])
		}
		if seal {
			c.SealSorted()
		}
		return c
	}
	for _, sealed := range []bool{true, false} {
		c := build(sealed)
		n := c.Len()
		for _, op := range allOps {
			for _, s := range []string{"alpha", "charlie", "echo", "zzz", "aaa", "missing"} {
				// Reference: direct string comparison per row.
				var wantFull []int
				for i := 0; i < n; i++ {
					v := c.Get(i)
					var m bool
					switch op {
					case vec.LT:
						m = v < s
					case vec.LE:
						m = v <= s
					case vec.GT:
						m = v > s
					case vec.GE:
						m = v >= s
					case vec.EQ:
						m = v == s
					case vec.NE:
						m = v != s
					}
					if m {
						wantFull = append(wantFull, i)
					}
				}
				for _, w := range windows(n) {
					lo, hi := w[0], w[1]
					var want []int
					for _, i := range wantFull {
						if i >= lo && i < hi {
							want = append(want, i-lo)
						}
					}
					out := vec.NewBitvec(hi - lo)
					c.ScanRows(op, s, lo, hi, out)
					checkBits(t, out, want,
						fmt.Sprintf("string sealed=%v op=%v s=%q [%d,%d)", sealed, op, s, lo, hi))
				}
			}
		}
	}
}

// TestScanRowsAllocs pins that a segment-aligned window over dictionary
// and bit-packed segments scans straight into the caller's selection:
// no scratch bit vector, no per-match closure — zero allocations.
func TestScanRowsAllocs(t *testing.T) {
	for _, tc := range []struct {
		vals []int64
		enc  compress.Encoding
	}{
		{synth.UniformInts(1, 2*SegSize, 1000), compress.Dict},
		{synth.UniformInts(2, 2*SegSize, 1<<20), compress.Bitpack},
	} {
		c := NewIntColumn()
		c.AppendSlice(tc.vals)
		c.Seal()
		for _, s := range c.segs {
			if s.enc != tc.enc {
				t.Fatalf("sealed as %v, want %v", s.enc, tc.enc)
			}
		}
		out := vec.NewBitvec(SegSize)
		for _, op := range allOps {
			cval := tc.vals[7]
			allocs := testing.AllocsPerRun(10, func() {
				out.Reset()
				c.ScanRows(op, cval, SegSize, 2*SegSize, out)
			})
			if allocs != 0 {
				t.Errorf("%v %s %d: %.0f allocations per aligned window, want 0", tc.enc, op, cval, allocs)
			}
		}
	}
}
