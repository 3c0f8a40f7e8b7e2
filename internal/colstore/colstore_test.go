package colstore

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/experiments/synth"
	"repro/internal/vec"
)

func TestIntColumnAppendGetSealed(t *testing.T) {
	c := NewIntColumn()
	vals := synth.UniformInts(1, 3*SegSize/2, 1<<30)
	c.AppendSlice(vals)
	if c.Len() != len(vals) {
		t.Fatalf("len = %d want %d", c.Len(), len(vals))
	}
	for _, i := range []int{0, 1, SegSize - 1, SegSize, len(vals) - 1} {
		if c.Get(i) != vals[i] {
			t.Fatalf("pre-seal Get(%d) = %d want %d", i, c.Get(i), vals[i])
		}
	}
	c.Seal()
	for _, i := range []int{0, 1, SegSize - 1, SegSize, len(vals) - 1} {
		if c.Get(i) != vals[i] {
			t.Fatalf("post-seal Get(%d) = %d want %d", i, c.Get(i), vals[i])
		}
	}
	if !reflect.DeepEqual(c.Values(), vals) {
		t.Fatal("Values mismatch after seal")
	}
}

func TestIntColumnAppendAfterSeal(t *testing.T) {
	c := NewIntColumn()
	c.AppendSlice([]int64{1, 2, 3})
	c.Seal()
	c.Append(4)
	c.Append(5)
	if got := c.Values(); !reflect.DeepEqual(got, []int64{1, 2, 3, 4, 5}) {
		t.Fatalf("values = %v", got)
	}
	// Get across the irregular (sealed-short + raw) segment boundary.
	for i, want := range []int64{1, 2, 3, 4, 5} {
		if c.Get(i) != want {
			t.Fatalf("Get(%d) = %d want %d", i, c.Get(i), want)
		}
	}
}

func TestIntColumnSealedCompression(t *testing.T) {
	// A narrow-domain column must shrink when sealed.
	c := NewIntColumn()
	c.AppendSlice(synth.UniformInts(2, SegSize, 256))
	before := c.Bytes()
	c.Seal()
	after := c.Bytes()
	if after >= before/4 {
		t.Errorf("8-bit domain should pack at least 4x: before=%d after=%d", before, after)
	}
}

func TestIntColumnScanMatchesNaive(t *testing.T) {
	vals := synth.UniformInts(3, 2*SegSize+100, 10000)
	c := NewIntColumn()
	c.AppendSlice(vals)
	c.Seal()
	for _, op := range []vec.CmpOp{vec.LT, vec.LE, vec.GT, vec.GE, vec.EQ, vec.NE} {
		for _, cv := range []int64{0, 1, 5000, 9999, 10000, -5} {
			out := vec.NewBitvec(len(vals))
			ctr := c.ScanRows(op, cv, 0, len(vals), out)
			want := vec.NewBitvec(len(vals))
			vec.ScanBranching(vals, op, cv, want)
			if !reflect.DeepEqual(out.Words(), want.Words()) {
				t.Fatalf("op %v c=%d: scan mismatch (got %d want %d)", op, cv, out.Count(), want.Count())
			}
			if ctr.TuplesOut != uint64(out.Count()) {
				t.Fatalf("op %v c=%d: TuplesOut=%d matches=%d", op, cv, ctr.TuplesOut, out.Count())
			}
		}
	}
}

func TestIntColumnScanProperty(t *testing.T) {
	f := func(seed uint64, rawOp uint8, c int64) bool {
		vals := synth.UniformInts(seed, 500, 1000)
		col := NewIntColumn()
		col.AppendSlice(vals)
		col.Seal()
		op := vec.CmpOp(int(rawOp) % 6)
		c = c % 2000 // exercise out-of-range constants both sides
		out := vec.NewBitvec(len(vals))
		col.ScanRows(op, c, 0, len(vals), out)
		want := vec.NewBitvec(len(vals))
		vec.ScanBranching(vals, op, c, want)
		return reflect.DeepEqual(out.Words(), want.Words())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZoneMapPruning(t *testing.T) {
	// Build a column whose segments cover disjoint ranges; a selective
	// predicate must skip most segments.
	c := NewIntColumn()
	for seg := 0; seg < 4; seg++ {
		base := int64(seg) * 1_000_000
		for i := 0; i < SegSize; i++ {
			c.Append(base + int64(i%1000))
		}
	}
	c.Seal()
	out := vec.NewBitvec(c.Len())
	_, st := c.scanRows(vec.LT, 500, 0, c.Len(), out)
	if st.SegmentsSkipped < 3 {
		t.Errorf("expected at least 3 segments pruned, got %+v", st)
	}
	if out.Count() == 0 {
		t.Error("predicate should match rows in the first segment")
	}
	// A full-match predicate should also skip data inspection.
	out2 := vec.NewBitvec(c.Len())
	_, st2 := c.scanRows(vec.GE, -1, 0, c.Len(), out2)
	if out2.Count() != c.Len() {
		t.Errorf("GE -1 must match all rows, got %d", out2.Count())
	}
	if st2.SegmentsPacked != 0 {
		t.Errorf("full-match scan should not stream segments: %+v", st2)
	}
}

func TestIntColumnMinMax(t *testing.T) {
	c := NewIntColumn()
	if _, _, ok := c.MinMax(); ok {
		t.Fatal("empty column has no min/max")
	}
	c.AppendSlice([]int64{5, -3, 10, 2})
	min, max, ok := c.MinMax()
	if !ok || min != -3 || max != 10 {
		t.Fatalf("minmax = %d,%d,%v", min, max, ok)
	}
	c.Seal()
	min, max, ok = c.MinMax()
	if !ok || min != -3 || max != 10 {
		t.Fatalf("sealed minmax = %d,%d,%v", min, max, ok)
	}
}

func TestFloatColumn(t *testing.T) {
	c := NewFloatColumn()
	c.AppendSlice([]float64{1.5, -2.5, 3.0, 0.5})
	if c.Len() != 4 || c.Get(2) != 3.0 {
		t.Fatal("basic float ops broken")
	}
	out := vec.NewBitvec(4)
	ctr := c.ScanRows(vec.GT, 0.6, 0, 4, out)
	if out.Count() != 2 || !bit(out, 0) || !bit(out, 2) {
		t.Fatalf("scan matched %d", out.Count())
	}
	if ctr.TuplesOut != 2 {
		t.Fatal("counter mismatch")
	}
}

func TestStringColumnEqAndDict(t *testing.T) {
	c := NewStringColumn()
	c.AppendSlice([]string{"EUROPE", "ASIA", "ASIA", "AFRICA", "EUROPE"})
	if c.DictSize() != 3 || c.Len() != 5 {
		t.Fatal("dict size wrong")
	}
	if c.Get(3) != "AFRICA" {
		t.Fatal("Get broken")
	}
	out := vec.NewBitvec(5)
	c.ScanRows(vec.EQ, "ASIA", 0, 5, out)
	if out.Count() != 2 || !bit(out, 1) || !bit(out, 2) {
		t.Fatal("equality scan broken")
	}
	miss := vec.NewBitvec(5)
	c.ScanRows(vec.EQ, "MARS", 0, 5, miss)
	if miss.Count() != 0 {
		t.Fatal("unknown string must match nothing")
	}
}

func TestStringColumnSealSortedRange(t *testing.T) {
	c := NewStringColumn()
	in := []string{"delta", "alpha", "charlie", "bravo", "alpha", "echo"}
	c.AppendSlice(in)
	// b <= s < d: the rows >= "b" that are also < "d".
	scanRange := func() *vec.Bitvec {
		ge, below := vec.NewBitvec(len(in)), vec.NewBitvec(len(in))
		c.ScanRows(vec.GE, "b", 0, len(in), ge)
		c.ScanRows(vec.LT, "d", 0, len(in), below)
		ge.And(below)
		return ge
	}
	// Range scan before sealing (slow path).
	out := scanRange()
	wantMatch := func(s string) bool { return s >= "b" && s < "d" }
	for i, s := range in {
		if bit(out, i) != wantMatch(s) {
			t.Fatalf("pre-seal range wrong at %d (%s)", i, s)
		}
	}
	c.SealSorted()
	if !c.Ordered() {
		t.Fatal("column must be ordered after SealSorted")
	}
	// Values must be preserved by the remap.
	for i, s := range in {
		if c.Get(i) != s {
			t.Fatalf("remap corrupted row %d: %q != %q", i, c.Get(i), s)
		}
	}
	out2 := scanRange()
	for i, s := range in {
		if bit(out2, i) != wantMatch(s) {
			t.Fatalf("post-seal range wrong at %d (%s)", i, s)
		}
	}
	// Equality after remap.
	eq := vec.NewBitvec(len(in))
	c.ScanRows(vec.EQ, "alpha", 0, len(in), eq)
	if eq.Count() != 2 || !bit(eq, 1) || !bit(eq, 4) {
		t.Fatal("post-seal equality broken")
	}
}

func TestTableBasics(t *testing.T) {
	tab := NewTable("orders", Schema{
		{Name: "id", Type: Int64},
		{Name: "amount", Type: Float64},
		{Name: "region", Type: String},
	})
	if err := tab.Writer().Row(int64(1), 9.5, "ASIA").Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Row(int64(2), 1.25, "EUROPE").Close(); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if err := tab.Writer().Row(int64(3)).Close(); err == nil {
		t.Error("short row must error")
	}
	if err := tab.Writer().Row("x", 1.0, "y").Close(); err == nil {
		t.Error("type mismatch must error")
	}
	ic, err := tab.IntCol("id")
	if err != nil || ic.Get(1) != 2 {
		t.Fatal("IntCol broken")
	}
	if _, err := tab.IntCol("amount"); err == nil {
		t.Error("IntCol on DOUBLE must error")
	}
	if _, err := tab.Column("nope"); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	if tab.Bytes() == 0 {
		t.Error("table must report a footprint")
	}
}

// TestTableBulkLoadAndSealValidation: a batch commits only as complete
// rows.  Close rejects a batch that leaves a column out, or whose column
// batches differ in length, and leaves the table as it was; a complete
// batch then loads, and a merge moves it into the main.
func TestTableBulkLoadAndSealValidation(t *testing.T) {
	tab := NewTable("t", Schema{
		{Name: "a", Type: Int64},
		{Name: "b", Type: Float64},
	})
	if err := tab.Writer().Row(int64(7), 0.5).Close(); err != nil {
		t.Fatal(err)
	}
	before := func() (int, int64, int64, int) {
		return tab.Rows(), tab.lastTS, tab.WriteEpoch(), len(tab.addTS)
	}
	r0, ts0, ep0, add0 := before()
	if err := tab.Writer().Int64("a", []int64{1, 2, 3}...).Close(); err == nil {
		t.Error("a batch without column b must fail Close")
	}
	if err := tab.Writer().Int64("a", 1, 2, 3).Float64("b", 1, 2).Close(); err == nil {
		t.Error("a ragged batch must fail Close")
	}
	if err := tab.Writer().Int64("a", 1).Row(int64(2), 2.0).Close(); err == nil {
		t.Error("a partial batch beside a row must fail Close")
	}
	if r, ts, ep, add := before(); r != r0 || ts != ts0 || ep != ep0 || add != add0 {
		t.Fatalf("rejected batches changed the table: rows %d ts %d epoch %d entries %d, want %d %d %d %d",
			r, ts, ep, add, r0, ts0, ep0, add0)
	}
	if err := tab.Writer().Int64("a", 1, 2, 3).Float64("b", 1, 2, 3).Close(); err != nil {
		t.Fatalf("a complete batch must load: %v", err)
	}
	if tab.Rows() != 4 || tab.DeltaRows() != 4 {
		t.Fatalf("rows %d, delta %d, want 4 and 4", tab.Rows(), tab.DeltaRows())
	}
	if _, err := tab.Merge(0); err != nil || tab.DeltaRows() != 0 {
		t.Fatalf("merge: %v, delta %d", err, tab.DeltaRows())
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := Schema{{Name: "x", Type: Int64}, {Name: "y", Type: Float64}}
	if s.ColIndex("y") != 1 || s.ColIndex("z") != -1 {
		t.Fatal("ColIndex broken")
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" || String.String() != "VARCHAR" {
		t.Fatal("type names wrong")
	}
}

// bit reports bit i of a selection vector; the served kernels read
// selections word at a time and keep no per-bit accessor.
func bit(b *vec.Bitvec, i int) bool { return b.Words()[i>>6]>>(uint(i)&63)&1 == 1 }

// TestStableIDsContinueAfterALoad: a load's rows take stable ids 0..n-1,
// so after a rebuild merge materializes the id map, the next insert
// takes id n — never an id a loaded row still holds.
func TestStableIDsContinueAfterALoad(t *testing.T) {
	tab := NewTable("t", Schema{{Name: "a", Type: Int64}})
	if err := tab.Writer().Int64("a", 10, 11, 12, 13).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	if err := tab.ApplyDelete(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if st, err := tab.Merge(0); err != nil || !st.Rebuilt {
		t.Fatalf("merge %+v: %v", st, err)
	}
	id, err := tab.ApplyInsert(3, 0, int64(14))
	if err != nil || id != 4 {
		t.Fatalf("insert took id %d (%v), want 4", id, err)
	}
	for row, want := range []int64{0, 2, 3, 4} {
		if got := tab.RowID(row); got != want {
			t.Fatalf("row %d has id %d, want %d", row, got, want)
		}
		if got, ok := tab.LookupRow(want); !ok || got != row {
			t.Fatalf("id %d resolves to row %d (%v), want %d", want, got, ok, row)
		}
	}
}
