package codec

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

func roundTrip(t *testing.T, c Codec, values []int64) {
	t.Helper()
	payload := c.Compress(values)
	got, err := c.Decompress(payload)
	if err != nil {
		t.Fatalf("%s: decompress: %v", c.Name(), err)
	}
	if len(got) == 0 && len(values) == 0 {
		return
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatalf("%s: round trip mismatch: got %d values want %d", c.Name(), len(got), len(values))
	}
}

func TestAllCodecsRoundTripFixed(t *testing.T) {
	inputs := [][]int64{
		nil,
		{},
		{0},
		{-1},
		{1, 2, 3, 4, 5},
		{5, 5, 5, 5, 5, 1, 1, 2},
		{-1 << 62, 1 << 62, 0, -1, 1},
		synth.UniformInts(1, 1000, 1<<40),
		synth.SortedInts(2, 1000, 100),
		synth.RunsInts(3, 1000, 4, 20),
	}
	for _, c := range All() {
		for _, in := range inputs {
			roundTrip(t, c, in)
		}
	}
}

func TestAllCodecsRoundTripProperty(t *testing.T) {
	for _, c := range All() {
		c := c
		f := func(values []int64) bool {
			payload := c.Compress(values)
			got, err := c.Decompress(payload)
			if err != nil {
				return false
			}
			if len(values) == 0 {
				return len(got) == 0
			}
			return reflect.DeepEqual(got, values)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	vals := synth.UniformInts(7, 100, 1000)
	for _, c := range All() {
		if c.Name() == "none" {
			continue
		}
		payload := c.Compress(vals)
		// Truncations must error, not panic or return garbage silently.
		for _, cut := range []int{0, 1, len(payload) / 2} {
			if cut >= len(payload) {
				continue
			}
			if _, err := c.Decompress(payload[:cut]); err == nil {
				// Some truncations can still parse as a shorter valid
				// stream for varint codecs; only structural codecs must
				// fail hard.
				if c.Name() == "bitpack" || c.Name() == "dict" {
					t.Errorf("%s: truncation to %d bytes not rejected", c.Name(), cut)
				}
			}
		}
	}
	if _, err := None.Decompress(make([]byte, 7)); err == nil {
		t.Error("none codec must reject non-multiple-of-8 payloads")
	}
}

func TestPackUnpackWidths(t *testing.T) {
	for width := 1; width <= 64; width++ {
		n := 131
		vals := make([]uint64, n)
		rng := workload.NewRNG(uint64(width))
		var mask uint64
		if width == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1) << width) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		packed := PackUint64(vals, width)
		got := UnpackUint64(packed, n, width)
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: unpack mismatch", width)
		}
	}
}

func TestPackRejectsOversizedValues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value exceeding width")
		}
	}()
	PackUint64([]uint64{8}, 3)
}

func TestRunsEncodeDecode(t *testing.T) {
	vals := []int64{1, 1, 1, 2, 3, 3}
	runs := compress.EncodeRuns(vals)
	want := []compress.Run{{Value: 1, Length: 3}, {Value: 2, Length: 1}, {Value: 3, Length: 2}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("EncodeRuns = %v, want %v", runs, want)
	}
	if !reflect.DeepEqual(DecodeRuns(runs), vals) {
		t.Fatal("DecodeRuns mismatch")
	}
	if compress.EncodeRuns(nil) != nil {
		t.Fatal("empty input should give nil runs")
	}
}

func TestDictionaryOrderPreserving(t *testing.T) {
	input := []string{"EUROPE", "ASIA", "ASIA", "AFRICA", "EUROPE"}
	d, codes := BuildDictionary(input)
	if d.Size() != 3 {
		t.Fatalf("size = %d, want 3", d.Size())
	}
	// Codes must be assigned in sorted string order.
	for i, s := range input {
		c, ok := d.Code(s)
		if !ok || codes[i] != c {
			t.Fatalf("code mismatch at %d", i)
		}
		if d.Value(c) != s {
			t.Fatalf("Value(Code(%q)) = %q", s, d.Value(c))
		}
	}
	ca, _ := d.Code("AFRICA")
	cs, _ := d.Code("ASIA")
	ce, _ := d.Code("EUROPE")
	if !(ca < cs && cs < ce) {
		t.Fatal("dictionary codes must preserve order")
	}
}

func TestCompressionRatiosFavorTheRightCodec(t *testing.T) {
	// RLE must dominate on run-heavy data, delta on sorted data, dict on
	// low-cardinality data.  This is the substrate of the E3 decision.
	runs := synth.RunsInts(11, 20000, 4, 100)
	if Ratio(RLE, runs) >= Ratio(Bitpack, runs) {
		t.Errorf("RLE should beat bitpack on run data: %g vs %g", Ratio(RLE, runs), Ratio(Bitpack, runs))
	}
	sorted := synth.SortedInts(12, 20000, 10)
	if Ratio(Delta, sorted) >= Ratio(None, sorted)*0.5 {
		t.Errorf("delta should compress sorted data at least 2x: %g", Ratio(Delta, sorted))
	}
	uniform := synth.UniformInts(13, 20000, 1<<62)
	if r := Ratio(Bitpack, uniform); r > 1.1 {
		t.Errorf("bitpack should never exceed raw by >10%%: %g", r)
	}
	// The advisor's pick should actually compress at least as well as raw.
	lowCard := synth.UniformInts(23, 10000, 50)
	for _, data := range [][]int64{synth.RunsInts(21, 10000, 4, 100), synth.SortedInts(22, 10000, 10), lowCard, synth.UniformInts(24, 10000, 1<<50)} {
		c := For(compress.Choose(compress.Analyze(data).Stats))
		if r := Ratio(c, data); r > 1.1 {
			t.Errorf("advisor pick %s has ratio %g > 1.1", c.Name(), r)
		}
	}
}
