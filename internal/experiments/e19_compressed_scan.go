package experiments

import (
	"fmt"
	"io"
	"reflect"
	"sort"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/experiments/synth"
	"repro/internal/vec"
)

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "operate-on-compressed segment scans: energy/row vs raw across codecs and selectivities (extension)",
		Claim: "energy tracks data movement: evaluating predicates directly on advisor-chosen compressed segments (RLE runs, delta boundary search, dictionary code rewrite, bit-packed SWAR) touches fewer DRAM bytes than the raw scan while returning byte-identical results and identical row counters",
		Run:   runE19,
	})
}

// E19Row is one (data shape, selectivity) comparison of the raw and the
// sealed-compressed scan over identical values.
type E19Row struct {
	Data        string // generator shape
	Codec       string // dominant codec the seal advisor chose
	Selectivity float64
	RawBytes    uint64 // DRAM bytes the unsealed scan streams
	CompBytes   uint64 // DRAM bytes the compressed scan streams
	RawJ        energy.Joules
	CompJ       energy.Joules
	Matches     int
}

// SavingsX returns the energy ratio raw/compressed (higher is better).
func (r E19Row) SavingsX() float64 {
	if r.CompJ == 0 {
		return 0
	}
	return float64(r.RawJ / r.CompJ)
}

// e19Shapes are the data distributions swept, one per codec the seal
// advisor can pick.
func e19Shapes(n int) []struct {
	Name string
	Want string
	Vals []int64
} {
	return []struct {
		Name string
		Want string
		Vals []int64
	}{
		{"runs(card16,avg64)", "rle", synth.RunsInts(19, n, 16, 64)},
		{"lowcard(32)", "dict", synth.UniformInts(20, n, 32)},
		{"sorted(step8)", "delta", synth.SortedInts(21, n, 8)},
		{"uniform(20bit)", "bitpack", synth.UniformInts(22, n, 1<<20)},
	}
}

// E19BenchShape is one data shape of the root-level
// BenchmarkE19CompressedScan: the values, the codec the advisor picks
// for them (used as the bench name), and the predicate cut for a ~50%
// selective predicate.
type E19BenchShape struct {
	Name string
	Vals []int64
	Cut  int64
}

// E19BenchShapes exports the E19 data shapes for the root benchmark.
func E19BenchShapes(n int) []E19BenchShape {
	var out []E19BenchShape
	for _, s := range e19Shapes(n) {
		q := append([]int64(nil), s.Vals...)
		sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
		// The 47th percentile, not the median: on a sorted column the
		// median sits exactly on a segment boundary, where zone maps
		// resolve every segment and the boundary-search kernel never
		// runs — half-way into a segment keeps it honest.
		out = append(out, E19BenchShape{Name: s.Want, Vals: s.Vals, Cut: q[len(q)*47/100]})
	}
	return out
}

// dominantCodec returns the codec covering the most sealed segments.
func dominantCodec(segs map[string]int) string {
	best, bestN := "", -1
	for name, k := range segs { //lint:allow determinism: order-independent argmax: strict count comparison with total lexicographic tie-break
		if k > bestN || (k == bestN && name < best) {
			best, bestN = name, k
		}
	}
	return best
}

// E19Sweep scans each data shape raw (unsealed) and sealed-compressed at
// several selectivities, verifying byte-identical results and identical
// logical row counters, and pricing both with the energy model.  It
// errors if the advisor picks an unexpected codec or the two paths
// diverge, so the shape test and benchmark double as correctness checks.
func E19Sweep(n int) ([]E19Row, error) {
	model := energy.DefaultModel()
	pstate := model.Core.MaxPState()
	price := func(c energy.Counters) energy.Joules {
		return model.DynamicEnergy(c, pstate).Total()
	}
	var out []E19Row
	for _, shape := range e19Shapes(n) {
		raw := colstore.NewIntColumn()
		raw.AppendSlice(shape.Vals)
		comp := colstore.NewIntColumn()
		comp.AppendSlice(shape.Vals)
		comp.Seal()
		codec := dominantCodec(comp.Storage().Segments)
		if codec != shape.Want {
			return nil, fmt.Errorf("experiments: E19 %s: advisor chose %s, expected %s",
				shape.Name, codec, shape.Want)
		}
		quantiles := append([]int64(nil), shape.Vals...)
		sort.Slice(quantiles, func(i, j int) bool { return quantiles[i] < quantiles[j] })
		for _, sel := range []float64{0.01, 0.10, 0.50, 0.90} {
			cut := quantiles[int(float64(n-1)*sel)]
			outR := vec.NewBitvec(n)
			ctrR := raw.ScanRows(vec.LT, cut, 0, n, outR)
			outC := vec.NewBitvec(n)
			ctrC := comp.ScanRows(vec.LT, cut, 0, n, outC)
			if !reflect.DeepEqual(outR.Words(), outC.Words()) {
				return nil, fmt.Errorf("experiments: E19 %s sel=%.2f: compressed scan result diverges from raw", shape.Name, sel)
			}
			if ctrR.TuplesIn != ctrC.TuplesIn || ctrR.TuplesOut != ctrC.TuplesOut {
				return nil, fmt.Errorf("experiments: E19 %s sel=%.2f: row counters diverge (raw in/out %d/%d, compressed %d/%d)",
					shape.Name, sel, ctrR.TuplesIn, ctrR.TuplesOut, ctrC.TuplesIn, ctrC.TuplesOut)
			}
			out = append(out, E19Row{
				Data: shape.Name, Codec: codec, Selectivity: sel,
				RawBytes: ctrR.BytesReadDRAM, CompBytes: ctrC.BytesReadDRAM,
				RawJ: price(ctrR), CompJ: price(ctrC),
				Matches: outC.Count(),
			})
		}
	}
	return out, nil
}

func runE19(w io.Writer) error {
	rows, err := E19Sweep(1 << 20)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "data\tcodec\tselectivity\traw-bytes\tcomp-bytes\traw-J\tcomp-J\tsavings")
	for _, r := range rows {
		savings := "inf" // zone maps resolved every segment: nothing streamed
		if r.CompJ > 0 {
			savings = fmt.Sprintf("%.1fx", r.SavingsX())
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%d\t%d\t%v\t%v\t%s\n",
			r.Data, r.Codec, r.Selectivity, r.RawBytes, r.CompBytes, r.RawJ, r.CompJ, savings)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: every compressed scan returns byte-identical results and row counters,")
	fmt.Fprintln(w, "while streaming strictly fewer DRAM bytes than the raw scan — RLE and dictionary")
	fmt.Fprintln(w, "segments by an order of magnitude, sorted segments by more (boundary search")
	fmt.Fprintln(w, "touches only the checkpoint spine), bit-packing by the code-width ratio.  Less")
	fmt.Fprintln(w, "movement is less energy: the storage format joins DOP and P-state as a knob.")
	return nil
}
