package colstore

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/compress"
	"repro/internal/energy"
	"repro/internal/workload"
)

// The retired row-by-row rebuild merge and string seal, kept as oracles
// of the bulk ones: every column decoded whole and re-appended a row at a
// time (strings through the append-order dictionary), then re-sorted and
// remapped.

// rowwiseSealSorted is the retired StringColumn.SealSorted.
func rowwiseSealSorted(c *StringColumn) {
	if !c.ordered {
		sorted := make([]string, len(c.values))
		copy(sorted, c.values)
		sort.Strings(sorted)
		remap := make([]int64, len(c.values))
		newIndex := make(map[string]int, len(sorted))
		for i, s := range sorted {
			newIndex[s] = i
		}
		for old, s := range c.values {
			remap[old] = int64(newIndex[s])
		}
		old := c.codes.Values()
		c.codes = NewIntColumn()
		for _, oc := range old {
			c.codes.Append(remap[oc])
		}
		c.values = sorted
		c.index = newIndex
		c.ordered = true
	}
	c.codes.Seal()
}

// rowwiseMerge is Table.Merge with the retired rebuild; it fails unless
// the merge drops rows (the tail path is shared).
func rowwiseMerge(t *Table, horizon int64) (MergeStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := func(ts int64) bool { return horizon <= 0 || ts <= horizon }
	n := t.lenLocked()
	st := MergeStats{Table: t.Name, RowsIn: n, DeltaRowsIn: n - t.sealedRows, BytesBefore: t.bytesLocked(), Rebuilt: true}
	drop := make([]bool, n)
	for i, ts := range t.delTS {
		if cut(ts) {
			drop[int(t.delRows[i])] = true
			st.Dropped++
		} else {
			st.TombstonesKept++
		}
	}
	if st.Dropped == 0 {
		return st, fmt.Errorf("oracle: no row to drop")
	}
	kept := 0
	newPos := make([]int32, n)
	for i := 0; i < n; i++ {
		if !drop[i] {
			newPos[i] = int32(kept)
			kept++
		}
	}
	newCols := make([]Column, len(t.cols))
	var w energy.Counters
	for ci, c := range t.cols {
		switch cc := c.(type) {
		case *IntColumn:
			nc := NewIntColumn()
			for i, v := range cc.Values() {
				if !drop[i] {
					nc.Append(v)
				}
			}
			nc.Seal()
			newCols[ci] = nc
			w.BytesReadDRAM += uint64(n) * 8
			w.BytesWrittenDRAM += uint64(kept) * 8
		case *FloatColumn:
			nc := NewFloatColumn()
			for i := 0; i < n; i++ {
				if !drop[i] {
					nc.Append(cc.Get(i))
				}
			}
			newCols[ci] = nc
			w.BytesReadDRAM += uint64(n) * 8
			w.BytesWrittenDRAM += uint64(kept) * 8
		case *StringColumn:
			nc := NewStringColumn()
			for i := 0; i < n; i++ {
				if !drop[i] {
					nc.Append(cc.Get(i))
				}
			}
			rowwiseSealSorted(nc)
			newCols[ci] = nc
			w.BytesReadDRAM += uint64(n) * 10
			w.BytesWrittenDRAM += uint64(kept) * 10
		}
	}
	newIDs := make([]int64, 0, kept)
	for i := 0; i < n; i++ {
		if drop[i] {
			continue
		}
		if t.rowIDs == nil {
			newIDs = append(newIDs, int64(i))
		} else {
			newIDs = append(newIDs, t.rowIDs[i])
		}
	}
	var addRows, delRows []int32
	var addTS, delTS []int64
	for i, ts := range t.addTS {
		if !cut(ts) {
			addRows = append(addRows, newPos[int(t.addRows[i])])
			addTS = append(addTS, ts)
		}
	}
	for i, ts := range t.delTS {
		if !cut(ts) {
			delRows = append(delRows, newPos[int(t.delRows[i])])
			delTS = append(delTS, ts)
		}
	}
	t.cols = newCols
	t.rowIDs = newIDs
	t.addRows, t.addTS = addRows, addTS
	t.delRows, t.delTS = delRows, delTS
	t.sealedRows = kept
	buildSynopses(t) // the synopses a rebuild merge builds; CheckSynopses checks them
	w.Instructions += uint64(n) * uint64(len(t.cols)) * 6
	w.TuplesIn += uint64(n)
	w.TuplesOut += uint64(kept)
	st.Work = w
	t.writeEpoch++
	st.RowsOut = t.lenLocked()
	st.BytesAfter = t.bytesLocked()
	return st, nil
}

// sameTable fails the test at the first difference between two tables:
// stored layout, stable row ids, visibility metadata.
func sameTable(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if err := DiffLayout(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	type meta struct {
		SealedRows                 int
		AddRows, DelRows           []int32
		AddTS, DelTS, RowIDs       []int64
		NextRowID, LastTS, WriteEp int64
		AppliedLSN                 uint64
	}
	m := func(t *Table) meta {
		return meta{t.sealedRows, t.addRows, t.delRows, t.addTS, t.delTS, t.rowIDs, t.nextRowID, t.lastTS, t.writeEpoch, t.appliedLSN}
	}
	if g, w := m(got), m(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: metadata %+v, want %+v", label, g, w)
	}
}

// mergeCase builds a table and the writes a merge then compacts.
type mergeCase struct {
	rows    int
	inserts int               // committed delta rows, each a new region value when newStrings
	deletes func(n int) []int // physical rows to delete, in commit order
	// horizon is the merge's horizon as a fraction of the last commit
	// timestamp (0 = compact everything).
	horizon    float64
	newStrings bool
}

// build loads rows of five columns covering every seal path — a sorted
// key (delta), a bounded Zipf key (bitset-counted), a low-cardinality
// wide-range key (sort-counted dict), a day with long runs (RLE) and a
// region string — seals it, and applies the case's inserts then deletes
// at increasing commit timestamps.
func (mc mergeCase) build(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("m", Schema{
		{Name: "id", Type: Int64}, {Name: "custkey", Type: Int64}, {Name: "wide", Type: Int64},
		{Name: "region", Type: String}, {Name: "amount", Type: Float64}, {Name: "day", Type: Int64},
	})
	o := workload.GenOrders(7, mc.rows, 500, 1.1)
	wide := make([]int64, mc.rows)
	regions := make([]string, mc.rows)
	for i := range wide {
		wide[i] = (o.CustKey[i]%7 - 3) * 1e15
		regions[i] = workload.RegionNames[o.Region[i]]
	}
	err := tab.Writer().Int64("id", o.OrderID...).Int64("custkey", o.CustKey...).Int64("wide", wide...).
		String("region", regions...).Float64("amount", o.Amount...).Int64("day", o.OrderDay...).Close()
	if err == nil {
		_, err = tab.Merge(0)
	}
	ts := int64(0)
	for i := 0; i < mc.inserts && err == nil; i++ {
		region := workload.RegionNames[i%5]
		if mc.newStrings {
			region = fmt.Sprintf("NEW %02d", i%23)
		}
		ts++
		_, err = tab.ApplyInsert(ts, 0, int64(mc.rows+1+2*i), int64(i%9), int64(i%3)*-1e15, region, 2.5, int64(20000+i/50))
	}
	for _, row := range mc.deletes(mc.rows + mc.inserts) {
		if err != nil {
			break
		}
		ts++
		err = tab.ApplyDelete(ts, 0, tab.RowID(row))
	}
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestRebuildMergeMatchesRowwise: the bulk rebuild merge leaves a table
// identical to the retired row-by-row rebuild — storage, every segment's
// encoding and zone map, dictionaries, values, stable row ids, and the
// add/delete visibility metadata — and reports the same MergeStats.
func TestRebuildMergeMatchesRowwise(t *testing.T) {
	every := func(step, from int) func(n int) []int {
		return func(n int) []int {
			var rows []int
			for r := from; r < n; r += step {
				rows = append(rows, r)
			}
			return rows
		}
	}
	cases := map[string]mergeCase{
		// Tombstones in segments 0 and 2 only: segments 1 and 3 are
		// re-cut across the dropped rows without a drop of their own.
		"drop-in-some-segments": {rows: 4*SegSize + 300, inserts: 40, deletes: func(int) []int {
			return []int{3, 17, 900, 2*SegSize + 1, 2*SegSize + 5}
		}},
		// All of segment 1 goes.
		"whole-segment": {rows: 3*SegSize + 10, inserts: 5, deletes: func(int) []int {
			rows := make([]int, SegSize)
			for i := range rows {
				rows[i] = SegSize + i
			}
			return rows
		}},
		// "AFRICA" rows all go: the value leaves the dictionary.
		"dict-value-vanishes": {rows: SegSize + 500, deletes: func(n int) []int { return nil }},
		// Unseen strings in the delta leave the dictionary unordered.
		"unordered-strings": {rows: 2*SegSize + 77, inserts: 300, newStrings: true, deletes: every(997, 5)},
		// Every other delta row is deleted.
		"drop-delta-rows": {rows: SegSize + 1000, inserts: 200, deletes: func(n int) []int { return every(2, n-200)(n) }},
		// A live snapshot at half the commits keeps the later tombstones
		// (renumbered) and the later inserts' visibility.
		"horizon-keeps-tombstones": {rows: 2*SegSize + 5, inserts: 100, deletes: every(1009, 11), horizon: 0.5},
		"nothing-survives":         {rows: 1000, deletes: every(1, 0)},
	}
	for name, mc := range cases {
		t.Run(name, func(t *testing.T) {
			if name == "dict-value-vanishes" {
				probe := mc.build(t)
				region, _ := probe.StrCol("region")
				mc.deletes = func(int) []int {
					var rows []int
					for r := 0; r < region.Len(); r++ {
						if region.Get(r) == "AFRICA" {
							rows = append(rows, r)
						}
					}
					return rows
				}
			}
			got, want := mc.build(t), mc.build(t)
			horizon := int64(mc.horizon * float64(got.lastTS))
			gs, err := got.Merge(horizon)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := rowwiseMerge(want, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if !gs.Rebuilt || !reflect.DeepEqual(gs, ws) {
				t.Fatalf("merge stats %+v, want %+v", gs, ws)
			}
			if mc.horizon > 0 && gs.TombstonesKept == 0 {
				t.Fatal("the horizon kept no tombstone")
			}
			sameTable(t, name, got, want)
			if err := CheckSynopses(got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "dict-value-vanishes" {
				region, _ := got.StrCol("region")
				if region.DictSize() != 4 {
					t.Fatalf("dictionary %q still holds the vanished value", region.Dict())
				}
			}
		})
	}
}

// TestRebuildMarksExactlyTheKeptCodes: a rebuild's dictionary holds
// exactly the values of kept rows however each code segment's codes are
// marked — stated by a dictionary (segment 1) or decoded (2, bitpacked)
// — and whether a segment that loses a row is decoded (0) or skipped
// because what it states is already marked (3).  The retired row-by-row
// rebuild is the oracle.
func TestRebuildMarksExactlyTheKeptCodes(t *testing.T) {
	val := func(seg, i int) int {
		switch seg {
		case 0:
			return 100 + 1000*(i%5)
		case 1:
			return 2*(i%20) + 2
		case 2:
			return (i*7919)%15000*2 + 1
		}
		return 2*(i%10) + 2
	}
	build := func() *Table {
		tab := NewTable("m", Schema{{Name: "s", Type: String}})
		var vals []string
		for seg, n := range []int{SegSize, SegSize, SegSize, 1000} {
			for i := range n {
				vals = append(vals, fmt.Sprintf("v%05d", val(seg, i)))
			}
		}
		if err := tab.Writer().String("s", vals...).Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Merge(0); err != nil {
			t.Fatal(err)
		}
		// v02100 (segment 0's alone) vanishes; a row of segment 3 goes,
		// whose values segment 1 keeps.
		ts := tab.lastTS
		for r := range tab.Rows() {
			if tab.cols[0].(*StringColumn).Get(r) == "v02100" || r == 3*SegSize+7 {
				ts++
				if err := tab.ApplyDelete(ts, 0, tab.RowID(r)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tab
	}
	got, want := build(), build()
	codes := got.cols[0].(*StringColumn).codes
	for si, enc := range []compress.Encoding{compress.Dict, compress.Dict, compress.Bitpack, compress.Dict} {
		s := codes.segs[si]
		if _, stated := s.stated(); s.enc != enc || stated != (si != 2) {
			t.Fatalf("segment %d sealed as %v (stated %v), want %v", si, s.enc, stated, enc)
		}
	}
	if _, err := got.Merge(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rowwiseMerge(want, 0); err != nil {
		t.Fatal(err)
	}
	sameTable(t, "rebuild", got, want)
	if slices.Contains(got.cols[0].(*StringColumn).Dict(), "v02100") {
		t.Fatal("a vanished value is still in the dictionary")
	}
}

// TestSealSortedMatchesRowwise: the bulk SealSorted re-cuts and seals
// the codes exactly as the retired row-by-row remap did, at load and on a
// tail merge that brings new strings after a sealed prefix.
func TestSealSortedMatchesRowwise(t *testing.T) {
	load := func() *StringColumn {
		c := NewStringColumn()
		for i := 0; i < 2*SegSize+123; i++ {
			c.Append(fmt.Sprintf("v%03d", (i*31)%211))
		}
		return c
	}
	got, want := load(), load()
	got.SealSorted()
	rowwiseSealSorted(want)
	check := func(label string) {
		t.Helper()
		if !reflect.DeepEqual(got.Dict(), want.Dict()) || !reflect.DeepEqual(got.index, want.index) || !got.ordered {
			t.Fatalf("%s: dictionary %v, want %v", label, got.Dict(), want.Dict())
		}
		if err := sameIntColumn(got.codes, want.codes); err != nil {
			t.Fatalf("%s: codes: %v", label, err)
		}
	}
	check("load")
	held := got.Dict()
	for i := 0; i < SegSize+50; i++ {
		s := fmt.Sprintf("v%03d", i%211)
		if i%1000 == 0 {
			s = fmt.Sprintf("new%d", i)
		}
		got.Append(s)
		want.Append(s)
	}
	heldCopy := append([]string(nil), held...)
	got.SealSorted()
	rowwiseSealSorted(want)
	check("tail")
	if !reflect.DeepEqual(held, heldCopy) {
		t.Fatal("SealSorted rewrote a dictionary a reader holds")
	}
}

// TestPartialSynopsesKeepExactlyTheHeavyValues: in a 1 000-row segment a
// value needs 16 rows (1 000/64 rounded up) to be kept in a partial
// synopsis.  Each column holds one value on 16 rows, one on 15 and the
// rest on one row each: unsorted over a span of 2n-1 (counted in an
// array over it), sorted (runs), and as strings (codes).  A merge keeps
// exactly the 16-row value of each; the same values over a span of 2n,
// and a sorted column whose longest run is 15, keep none; every synopsis
// matches its recomputation, and the stored bytes
// count the global synopsis beside the partial ones.  A delete that
// leaves the heavy value 15 of 999 rows drops it at the rebuild merge.
func TestPartialSynopsesKeepExactlyTheHeavyValues(t *testing.T) {
	const n = 1000
	tab := NewTable("p", Schema{
		{Name: "narrow", Type: Int64}, {Name: "wide", Type: Int64}, {Name: "runs", Type: Int64},
		{Name: "short", Type: Int64}, {Name: "str", Type: String}, {Name: "f", Type: Float64},
	})
	perm := rand.New(rand.NewPCG(3, 0)).Perm(n)
	narrow, wide, runs, short := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	str, f := make([]string, n), make([]float64, n)
	for i := range n {
		v := int64(1000 + i) // one row each
		switch {
		case i < 16:
			v = 7
		case i < 31:
			v = 8
		}
		narrow[perm[i]], wide[perm[i]], runs[i], str[perm[i]] = v, v, v%1000, fmt.Sprint(v)
		short[i], f[i] = int64(max(i, 14)), float64(i)/4
	}
	narrow[perm[n-1]], wide[perm[n-1]] = 7+2*n-1, 7+2*n
	err := tab.Writer().Int64("narrow", narrow...).Int64("wide", wide...).Int64("runs", runs...).
		Int64("short", short...).String("str", str...).Float64("f", f...).Close()
	if _, err = tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	ss := tab.syn[0]
	for ci, want := range []int64{7, -1, 7, -1, int64(tab.cols[4].(*StringColumn).index["7"])} {
		switch s := ss.by[ci]; {
		case want < 0 && s != nil:
			t.Fatalf("%s keeps %v, want no synopsis", tab.schema[ci].Name, s.Keys)
		case want >= 0 && (s == nil || !s.Partial || !slices.Equal(s.Keys, []int64{want}) || s.Counts[0] != 16):
			t.Fatalf("%s keeps %+v, want the partial synopsis of %d on 16 rows", tab.schema[ci].Name, s, want)
		}
	}
	if err := CheckSynopses(tab); err != nil {
		t.Fatal(err)
	}
	var b uint64
	for _, s := range ss.by {
		b += s.bytes()
	}
	if got, want := tab.Storage().SynopsisBytes, b+ss.global.bytes(); got != want {
		t.Fatalf("synopsis bytes %d, want %d", got, want)
	}
	if err := tab.ApplyDelete(tab.LastTS()+1, 1, tab.RowID(slices.Index(narrow, 7))); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	if s := tab.syn[0].by[0]; s != nil {
		t.Fatalf("after the delete narrow keeps %v, want no synopsis", s.Keys)
	}
	if err := CheckSynopses(tab); err != nil {
		t.Fatal(err)
	}
}

// TestHeavyValueAtTheDistinctBound: a heavy value leaves at most
// n − ⌈n/64⌉ rows to the others, so a 1 000-row segment with one value
// on 16 rows and 984 others, 985 distinct values in all, is the most
// distinct a segment with a heavy value can be: the seal step's profile
// must not rule it out, and the merge keeps that value.
func TestHeavyValueAtTheDistinctBound(t *testing.T) {
	const n = 1000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(1000 + i) // one row each, a span under 2n
		if i%62 == 0 && i < 992 { // 16 rows: 0, 62, …, 930
			vals[i] = 7
		}
	}
	tab := NewTable("b", Schema{{Name: "k", Type: Int64}})
	if err := tab.Writer().Int64("k", vals...).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	if s := tab.syn[0].by[0]; s == nil || !s.Partial || !slices.Equal(s.Keys, []int64{7}) || s.Counts[0] != 16 {
		t.Fatalf("k keeps %+v, want the partial synopsis of 7 on 16 rows", s)
	}
	if err := CheckSynopses(tab); err != nil {
		t.Fatal(err)
	}
}
