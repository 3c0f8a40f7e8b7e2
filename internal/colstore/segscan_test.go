package colstore

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments/synth"
	"repro/internal/vec"
)

// Per-codec kernel tests: a sealed column must return byte-identical
// scan results and identical logical row counters (TuplesIn/TuplesOut)
// as the same column left raw, over aligned, unaligned, and
// segment-crossing windows, for every operator.  Bytes and instructions
// are allowed — expected — to differ: that is the point of operating on
// compressed segments.

// segData builds one value vector per codec the seal advisor can pick,
// each large enough for several segments, plus adversarial edges.
func segData(t *testing.T) map[string][]int64 {
	t.Helper()
	n := 2*SegSize + 4321
	sorted := synth.SortedInts(5, n, 6)
	runs := synth.RunsInts(6, n, 12, 80)
	lowcard := synth.UniformInts(7, n, 48)
	wide := synth.UniformInts(8, n, 1<<28)
	fullRange := make([]int64, SegSize+100)
	for i := range fullRange {
		// Alternating extremes: the >63-bit range cannot bit-pack and
		// must fall back to the raw sealed layout.
		if i%2 == 0 {
			fullRange[i] = math.MinInt64 + int64(i)
		} else {
			fullRange[i] = math.MaxInt64 - int64(i)
		}
	}
	return map[string][]int64{
		"delta->sorted":  sorted,
		"rle->runs":      runs,
		"dict->lowcard":  lowcard,
		"bitpack->wide":  wide,
		"raw->fullrange": fullRange,
	}
}

// wantEncoding maps each segData key to the codec the advisor must pick
// for its (full) segments.
func wantEncoding(key string) string {
	switch key {
	case "delta->sorted":
		return "delta"
	case "rle->runs":
		return "rle"
	case "dict->lowcard":
		return "dict"
	case "bitpack->wide":
		return "bitpack"
	}
	return "raw"
}

func TestSealPicksAdvisorCodec(t *testing.T) {
	for key, vals := range segData(t) {
		c := NewIntColumn()
		c.AppendSlice(vals)
		c.Seal()
		st := c.Storage()
		want := wantEncoding(key)
		if st.Segments[want] == 0 {
			t.Errorf("%s: no segment sealed as %s: %v", key, want, st.Segments)
		}
		if want != "raw" && st.StoredBytes >= st.RawBytes {
			t.Errorf("%s: sealing must shrink the column: stored %d raw %d",
				key, st.StoredBytes, st.RawBytes)
		}
	}
}

func TestCompressedScanMatchesRawAllCodecs(t *testing.T) {
	for key, vals := range segData(t) {
		n := len(vals)
		raw := NewIntColumn()
		raw.AppendSlice(vals)
		comp := NewIntColumn()
		comp.AppendSlice(vals)
		comp.Seal()
		// Probe constants: present values at several quantiles, absent
		// values, and both extremes.
		probes := []int64{vals[0], vals[n/3], vals[n-1], vals[n/2] + 1,
			math.MinInt64, math.MaxInt64}
		for _, op := range allOps {
			for _, cv := range probes {
				full := vec.NewBitvec(n)
				raw.ScanRows(op, cv, 0, n, full)
				for _, w := range windows(n) {
					lo, hi := w[0], w[1]
					gotB := vec.NewBitvec(hi - lo)
					got := comp.ScanRows(op, cv, lo, hi, gotB)
					wantB := vec.NewBitvec(hi - lo)
					want := raw.ScanRows(op, cv, lo, hi, wantB)
					label := fmt.Sprintf("%s op=%v c=%d [%d,%d)", key, op, cv, lo, hi)
					checkBits(t, gotB, wantWindow(full, lo, hi), label)
					if got.TuplesIn != want.TuplesIn || got.TuplesOut != want.TuplesOut {
						t.Fatalf("%s: row counters diverge: compressed in/out %d/%d, raw %d/%d",
							label, got.TuplesIn, got.TuplesOut, want.TuplesIn, want.TuplesOut)
					}
				}
			}
		}
	}
}

func TestCompressedGetAndValues(t *testing.T) {
	for key, vals := range segData(t) {
		c := NewIntColumn()
		c.AppendSlice(vals)
		c.Seal()
		if got := c.Values(); !reflect.DeepEqual(got, vals) {
			t.Fatalf("%s: Values() corrupted by seal", key)
		}
		for _, i := range []int{0, 1, deltaFrame - 1, deltaFrame, deltaFrame + 1,
			SegSize - 1, SegSize, len(vals) - 1} {
			if got := c.Get(i); got != vals[i] {
				t.Fatalf("%s: Get(%d) = %d want %d", key, i, got, vals[i])
			}
		}
	}
}

// TestCompressedScanTouchesFewerBytes is the energy claim at the kernel
// level: on compressible data the sealed scan must charge strictly fewer
// DRAM bytes than the raw scan for the same window and predicate.
func TestCompressedScanTouchesFewerBytes(t *testing.T) {
	for key, vals := range segData(t) {
		if wantEncoding(key) == "raw" {
			continue // full-range fallback stores raw; parity, not savings
		}
		n := len(vals)
		raw := NewIntColumn()
		raw.AppendSlice(vals)
		comp := NewIntColumn()
		comp.AppendSlice(vals)
		comp.Seal()
		cv := vals[n/3]
		ro := vec.NewBitvec(n)
		rctr := raw.ScanRows(vec.LT, cv, 0, n, ro)
		co := vec.NewBitvec(n)
		cctr := comp.ScanRows(vec.LT, cv, 0, n, co)
		if cctr.BytesReadDRAM >= rctr.BytesReadDRAM {
			t.Errorf("%s: compressed scan streams %d bytes, raw %d — no movement saved",
				key, cctr.BytesReadDRAM, rctr.BytesReadDRAM)
		}
	}
}
