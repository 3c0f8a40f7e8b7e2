package vec

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// codePred is one predicate of the window tests: `code op a`, or the band
// a <= code <= b when between.
type codePred struct {
	between bool
	op      CmpOp
	a, b    uint64
}

// holds is the per-code reference: CmpInt64 for a comparison (a constant
// past MaxInt64 is above every code), the two bounds for a band.
func (q codePred) holds(code uint64) bool {
	switch {
	case q.between:
		return q.a <= code && code <= q.b
	case q.a > math.MaxInt64:
		return q.op == LT || q.op == LE || q.op == NE
	}
	return CmpInt64(q.op, int64(code), int64(q.a))
}

func (q codePred) scan(p *Packed, lo, hi int, out *Bitvec, off int) {
	if q.between {
		p.scanBand(q.a, q.b, false, lo, hi, out, off)
		return
	}
	p.ScanWindow(q.op, q.a, lo, hi, out, off)
}

// checkWindow scans codes [lo, hi) into a copy of base at bit offset off
// and fails unless every window bit is base's OR the reference and every
// other bit — tail bits past Len included — is exactly base's.
func checkWindow(t testing.TB, p *Packed, codes []uint64, q codePred, lo, hi, off int, base *Bitvec) {
	t.Helper()
	got := base.Clone()
	q.scan(p, lo, hi, got, off)
	for i := 0; i < got.Len(); i++ {
		want := base.Get(i)
		if j := lo + i - off; i >= off && j < hi {
			want = want || q.holds(codes[j])
		}
		if got.Get(i) != want {
			t.Fatalf("width %d %+v window [%d,%d) at %d: bit %d = %v, want %v",
				p.Width(), q, lo, hi, off, i, got.Get(i), want)
		}
	}
	if r := uint(got.Len()) & 63; r != 0 && got.Words()[len(got.Words())-1]>>r != 0 {
		t.Fatalf("width %d %+v window [%d,%d) at %d: bits set past Len", p.Width(), q, lo, hi, off)
	}
}

// windowBase returns an n-bit vector, empty or with random bits set.
func windowBase(rng *workload.RNG, n int, fill bool) *Bitvec {
	b := NewBitvec(n)
	for i := 0; fill && i < n; i++ {
		if rng.Uint64()&3 == 0 {
			b.Set(i)
		}
	}
	return b
}

func TestPackedScanWindowMatchesScalar(t *testing.T) {
	const n = 257
	ops := []CmpOp{LT, LE, GT, GE, EQ, NE}
	for width := 1; width <= 63; width++ {
		rng := workload.NewRNG(uint64(width) * 31)
		max := uint64(1)<<width - 1
		absent := max / 2 // an in-domain constant no code takes
		codes := make([]uint64, n)
		for i := range codes {
			if codes[i] = rng.Uint64() & max; codes[i] == absent {
				codes[i] ^= 1
			}
		}
		consts := []uint64{0, max, max + 1, codes[n/3], absent}
		var preds []codePred
		for _, op := range ops {
			for _, c := range consts {
				preds = append(preds, codePred{op: op, a: c})
			}
		}
		for _, a := range consts {
			for _, b := range consts {
				preds = append(preds, codePred{between: true, a: a, b: b})
			}
		}
		p := NewPacked(codes, width)
		per := p.CodesPerWord()
		windows := [][2]int{{0, n}, {0, 0}, {1, n - 1}, {per - 1, per + 1}, {n - 1, n}, {per, 3 * per}}
		for k := 0; k < 3; k++ {
			lo := rng.Intn(n + 1)
			windows = append(windows, [2]int{lo, lo + rng.Intn(n+1-lo)})
		}
		for wi, w := range windows {
			off := []int{0, 127}[wi%2]
			if wi >= 2 {
				off = rng.Intn(128)
			}
			for _, fill := range []bool{false, true} {
				base := windowBase(rng, off+w[1]-w[0]+65, fill)
				for _, q := range preds {
					checkWindow(t, p, codes, q, w[0], w[1], off, base)
				}
			}
		}
	}
}

// FuzzPackedScanWindow checks random columns, predicates, windows and
// destination offsets against the per-code reference; the committed
// corpus under testdata/fuzz regresses in plain `go test`.
func FuzzPackedScanWindow(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(EQ), uint64(7), uint64(0), uint16(3), uint16(200), uint8(37), false)
	f.Fuzz(func(t *testing.T, seed uint64, rawWidth, rawOp uint8, c, c2 uint64, rawLo, rawHi uint16, off uint8, fill bool) {
		width := int(rawWidth)%63 + 1
		max := uint64(1)<<width - 1
		rng := workload.NewRNG(seed)
		n := int(seed % 700)
		codes := make([]uint64, n)
		for i := range codes {
			codes[i] = rng.Uint64() & max
			if rng.Uint64()&3 == 0 {
				codes[i] = c & max // enough matches to exercise dense words
			}
		}
		lo, hi := int(rawLo)%(n+1), int(rawHi)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		q := codePred{op: CmpOp(rawOp % 6), a: c % (max + 2), b: c2 % (max + 2), between: rawOp%7 == 6}
		base := windowBase(rng, int(off)+hi-lo+65, fill)
		checkWindow(t, NewPacked(codes, width), codes, q, lo, hi, int(off), base)
	})
}

// TestScanPredicatedFloatNaN pins the one raw kernel's DOUBLE semantics:
// a NaN row (or constant) matches only NE, and -0 equals +0.
func TestScanPredicatedFloatNaN(t *testing.T) {
	nan := math.NaN()
	vals := []float64{nan, 1, -1, math.Copysign(0, -1), math.Inf(1)}
	cases := []struct {
		op   CmpOp
		c    float64
		want []bool
	}{
		{LT, 0, []bool{false, false, true, false, false}},
		{LE, 0, []bool{false, false, true, true, false}},
		{GT, 0, []bool{false, true, false, false, true}},
		{GE, 0, []bool{false, true, false, true, true}},
		{EQ, 0, []bool{false, false, false, true, false}},
		{NE, 0, []bool{true, true, true, false, true}},
		{EQ, nan, []bool{false, false, false, false, false}},
		{NE, nan, []bool{true, true, true, true, true}},
		{LT, nan, []bool{false, false, false, false, false}},
	}
	for _, tc := range cases {
		out := NewBitvec(len(vals) + 3)
		ScanPredicatedAt(vals, tc.op, tc.c, out, 3)
		for i, w := range tc.want {
			if out.Get(3+i) != w {
				t.Errorf("%v %s %v = %v, want %v", vals[i], tc.op, tc.c, out.Get(3+i), w)
			}
		}
		if out.Count() != out.CountRange(3, 3+len(vals)) {
			t.Errorf("%s %v: bits set outside the window", tc.op, tc.c)
		}
	}
}
