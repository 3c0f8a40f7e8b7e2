package colstore

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/vec"
)

// loadSchema covers every column kind and, through its values, the
// codecs a seal picks: a sorted key (delta), a narrow key (dictionary or
// bit-packed), a run-heavy key (RLE), a DOUBLE and a VARCHAR.
var loadSchema = Schema{
	{Name: "id", Type: Int64}, {Name: "k", Type: Int64},
	{Name: "region", Type: String}, {Name: "amount", Type: Float64},
	{Name: "day", Type: Int64},
}

// loadCols returns n rows of loadSchema as column batches; unordered
// strings arrive in an order their sorted dictionary does not keep.
func loadCols(n, from int, unordered bool) map[string]any {
	ids, ks, days := make([]int64, n), make([]int64, n), make([]int64, n)
	regions, amounts := make([]string, n), make([]float64, n)
	names := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for i := range ids {
		r := from + i
		ids[i], ks[i], days[i] = int64(r), int64(r*7919%97), int64(r/5000)
		regions[i] = names[r*31%5]
		if unordered {
			regions[i] = fmt.Sprintf("z%03d", (n-r)%211)
		}
		amounts[i] = float64(r%1000) / 8
	}
	return map[string]any{"id": ids, "k": ks, "region": regions, "amount": amounts, "day": days}
}

// loadRows returns n schema-ordered rows continuing loadCols' values.
func loadRows(n, from int) [][]any {
	cols := loadCols(n, from, false)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{cols["id"].([]int64)[i], cols["k"].([]int64)[i], cols["region"].([]string)[i],
			cols["amount"].([]float64)[i], cols["day"].([]int64)[i]}
	}
	return rows
}

// TestLoadSealMatchesRetired: a load committed to the delta and moved
// into the main by Merge(0) — Engine.Seal's merge — stores exactly what
// the retired path — values appended one by one into raw main segments,
// then sealed — did: storage, segment boundaries, encodings, zone maps,
// dictionaries and values (DiffLayout compares every column, so the
// statistics the catalog derives from the table agree too).
func TestLoadSealMatchesRetired(t *testing.T) {
	cases := []struct {
		name      string
		cols      int // rows staged as column batches
		rows      int // rows staged with Row, after them
		unordered bool
	}{
		{name: "empty"},
		{name: "under-one-segment", cols: 1000},
		{name: "one-segment", cols: SegSize},
		{name: "three-segments", cols: 3 * SegSize},
		{name: "unordered-strings", cols: SegSize + 777, unordered: true},
		{name: "columns-then-rows", cols: SegSize - 3, rows: 10},
		{name: "rows-only", rows: 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cols map[string]any
			if tc.cols > 0 {
				cols = loadCols(tc.cols, 0, tc.unordered)
			}
			rows := loadRows(tc.rows, tc.cols)

			got := NewTable("t", loadSchema)
			w := got.Writer()
			for _, d := range loadSchema {
				switch b := cols[d.Name].(type) {
				case []int64:
					w.Int64(d.Name, b...)
				case []float64:
					w.Float64(d.Name, b...)
				case []string:
					w.String(d.Name, b...)
				}
			}
			for _, r := range rows {
				w.Row(r...)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := got.Merge(0); err != nil {
				t.Fatal(err)
			}

			want := NewTable("t", loadSchema)
			if err := RetiredLoad(want, cols, rows...); err != nil {
				t.Fatal(err)
			}
			if err := DiffLayout(got, want); err != nil {
				t.Fatal(err)
			}
			if got.DeltaRows() != 0 || got.RowsAsOf(1) != got.Rows() || got.Rows() != tc.cols+tc.rows {
				t.Fatalf("after the merge: %d rows, %d in the delta, %d visible at ts 1", got.Rows(), got.DeltaRows(), got.RowsAsOf(1))
			}
		})
	}
}

// TestWriterKeepsCallerSlices: staging a second batch for a column
// appends to a copy, never into the spare capacity of the caller's first
// slice, and Close copies what it commits.
func TestWriterKeepsCallerSlices(t *testing.T) {
	tab := NewTable("t", Schema{
		{Name: "a", Type: Int64}, {Name: "b", Type: Float64}, {Name: "c", Type: String}})
	ints := []int64{1, 2, -1, -1}
	floats := []float64{1, 2, -1, -1}
	strs := []string{"x", "y", "-", "-"}
	err := tab.Writer().
		Int64("a", ints[:2]...).Int64("a", 3, 4).
		Float64("b", floats[:2]...).Float64("b", 3, 4).
		String("c", strs[:2]...).String("c", "z", "w").
		Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ints, []int64{1, 2, -1, -1}) || !reflect.DeepEqual(floats, []float64{1, 2, -1, -1}) ||
		!reflect.DeepEqual(strs, []string{"x", "y", "-", "-"}) {
		t.Fatalf("staging wrote into the caller's slices: %v %v %q", ints, floats, strs)
	}
	ints[0], floats[0], strs[0] = 99, 99, "changed"
	a, _ := tab.IntCol("a")
	c, _ := tab.StrCol("c")
	bc, _ := tab.Column("b")
	for i, want := range []int64{1, 2, 3, 4} {
		if a.Get(i) != want || bc.(*FloatColumn).Get(i) != float64(want) || c.Get(i) != []string{"x", "y", "z", "w"}[i] {
			t.Fatalf("row %d: %d %v %q", i, a.Get(i), bc.(*FloatColumn).Get(i), c.Get(i))
		}
	}
}

// oracleRow is one row as the fuzz oracle knows it.
type oracleRow struct {
	id      int64
	k       int64
	s       string
	x       float64
	add     int64 // commit timestamp
	del     int64 // tombstone timestamp; 0 = none
	dropped bool  // compacted away by a merge
}

// loggedOp is one logged row operation: an insert of vals, or (vals nil)
// a delete of the row with stable id id, committed at ts.  Its position
// in the log, from 1, is its LSN.
type loggedOp struct {
	ts   int64
	id   int64
	vals []any
}

// FuzzAppendMerge drives one table through random Writer batches
// (column and Row staged, some crossing segment boundaries),
// transactions of ApplyInsert and ApplyDelete, and merges at random
// horizons, logging every commit; after each merge and at the end it
// checks the table against a row-at-a-time oracle — each physical row's
// stable id and values, and at every snapshot a merge left readable,
// RowsAsOf and FilterVisible — and after each merge every sealed
// segment's synopses against a recomputation from its rows
// (CheckSynopses) and that every integer and string column is cut at
// the same rows; then replays the logged commits into a fresh table
// through ApplyInsert/ApplyDelete, as WAL recovery does, and checks that
// at every snapshot.
func FuzzAppendMerge(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 2, 3, 3, 0, 4})
	f.Add([]byte{5, 200, 1, 3, 2, 9, 3, 2, 0, 40, 2, 1, 3, 0, 5, 90, 2, 50, 3, 4})
	f.Add([]byte{1, 3, 1, 3, 2, 0, 2, 1, 3, 2, 1, 0, 3, 0, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		schema := Schema{{Name: "k", Type: Int64}, {Name: "s", Type: String}, {Name: "x", Type: Float64}}
		tab := NewTable("f", schema)
		var log []loggedOp
		var rows []*oracleRow
		var lastTS, floor int64
		nextByte := func(i *int) byte {
			if *i >= len(ops) {
				return 0
			}
			b := ops[*i]
			*i++
			return b
		}
		value := func(n int, mode byte) (int64, string, float64) {
			k := int64(n)
			switch mode % 3 {
			case 1:
				k = int64(n % 13)
			case 2:
				k = int64(n/1000) * 1e12
			}
			s := fmt.Sprintf("s%02d", n%7)
			if n%11 == 0 {
				s = fmt.Sprintf("new%d", n%29)
			}
			return k, s, float64(n) / 4
		}
		insertRec := func(ts int64, r *oracleRow) uint64 {
			log = append(log, loggedOp{ts: ts, vals: []any{r.k, r.s, r.x}})
			return uint64(len(log))
		}
		nextID := int64(0)
		bigs := 0 // one batch of about a segment per input
		for i := 0; i < len(ops); {
			switch op := nextByte(&i) % 6; op {
			case 0, 5: // a Writer batch: columns, then rows
				n := int(nextByte(&i) % 40)
				if op == 5 && bigs == 0 {
					// Stops short of a segment boundary or crosses it,
					// so later batches fill or open a segment.
					bigs++
					n += SegSize - 128 + int(nextByte(&i))
				}
				mode := nextByte(&i)
				ts := lastTS + 1
				w := tab.Writer()
				var ks []int64
				var ss []string
				var xs []float64
				ncol := n / 2
				for j := 0; j < n; j++ {
					k, s, x := value(len(rows), mode)
					r := &oracleRow{id: nextID, k: k, s: s, x: x, add: ts}
					nextID++
					rows = append(rows, r)
					insertRec(ts, r)
					if j < ncol {
						ks, ss, xs = append(ks, k), append(ss, s), append(xs, x)
					} else {
						w.Row(k, s, x)
					}
				}
				if ncol > 0 {
					w.Int64("k", ks...).String("s", ss...).Float64("x", xs...)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if n > 0 {
					lastTS = ts
				}
			case 1: // a transaction's inserts
				m := 1 + int(nextByte(&i)%4)
				mode := nextByte(&i)
				ts := lastTS + 1
				for j := 0; j < m; j++ {
					k, s, x := value(len(rows), mode)
					r := &oracleRow{id: nextID, k: k, s: s, x: x, add: ts}
					nextID++
					rows = append(rows, r)
					id, err := tab.ApplyInsert(ts, insertRec(ts, r), k, s, x)
					if err != nil || id != r.id {
						t.Fatalf("insert: id %d, want %d: %v", id, r.id, err)
					}
				}
				lastTS = ts
			case 2: // a delete of a live row
				var live []*oracleRow
				for _, r := range rows {
					if r.del == 0 {
						live = append(live, r)
					}
				}
				b := int(nextByte(&i))
				if len(live) == 0 {
					continue
				}
				r := live[b*len(live)/256]
				ts := lastTS + 1
				log = append(log, loggedOp{ts: ts, id: r.id})
				lsn := uint64(len(log))
				if err := tab.ApplyDelete(ts, lsn, r.id); err != nil {
					t.Fatal(err)
				}
				r.del, lastTS = ts, ts
			case 3: // a merge at a horizon in [0, lastTS]
				h := int64(nextByte(&i)) % (lastTS + 1)
				if _, err := tab.Merge(h); err != nil {
					t.Fatal(err)
				}
				eff := h
				if h == 0 {
					eff = lastTS
				}
				for _, r := range rows {
					if r.del > 0 && r.del <= eff {
						r.dropped = true
					}
				}
				floor = max(floor, eff)
				checkTable(t, "merged", tab, rows, floor, lastTS, false)
				if err := CheckSynopses(tab); err != nil {
					t.Fatalf("merged: %v", err)
				}
				grid := gridOf(tab.cols)
				for ci, c := range tab.cols {
					if ic := intsOf(c); ic != nil && !slices.Equal(ic.starts, grid.starts) {
						t.Fatalf("merged: column %d cut at %v, want %v", ci, ic.starts, grid.starts)
					}
				}
			case 4:
				checkTable(t, "live", tab, rows, floor, lastTS, false)
			}
		}
		checkTable(t, "end", tab, rows, floor, lastTS, false)

		replayed := NewTable("f", schema)
		for i, op := range log {
			var err error
			if op.vals != nil {
				_, err = replayed.ApplyInsert(op.ts, uint64(i+1), op.vals...)
			} else {
				err = replayed.ApplyDelete(op.ts, uint64(i+1), op.id)
			}
			if err != nil {
				t.Fatalf("replay of commit %d: %v", i+1, err)
			}
		}
		checkTable(t, "replayed", replayed, rows, 0, lastTS, true)
	})
}

// checkTable compares tab with the oracle: its physical rows are the
// oracle's rows not dropped (all of them when replayed), in order, with
// their ids and values; at snapshot 0 and every snapshot in
// [max(floor, 1), lastTS] the visible prefix and tombstone mask are the
// oracle's.
func checkTable(t *testing.T, label string, tab *Table, rows []*oracleRow, floor, lastTS int64, replayed bool) {
	t.Helper()
	var phys []*oracleRow
	for _, r := range rows {
		if replayed || !r.dropped {
			phys = append(phys, r)
		}
	}
	if tab.Rows() != len(phys) {
		t.Fatalf("%s: %d rows, want %d", label, tab.Rows(), len(phys))
	}
	kc, _ := tab.IntCol("k")
	sc, _ := tab.StrCol("s")
	xcol, _ := tab.Column("x")
	ks, codes := make([]int64, len(phys)), make([]int64, len(phys))
	kc.DecodeRange(0, len(phys), ks)
	sc.CodeColumn().DecodeRange(0, len(phys), codes)
	xs := xcol.(*FloatColumn).Values()
	for i, r := range phys {
		if id := tab.RowID(i); id != r.id || ks[i] != r.k || sc.Dict()[codes[i]] != r.s || xs[i] != r.x {
			t.Fatalf("%s: row %d is (id %d, %d, %q, %v), want (id %d, %d, %q, %v)",
				label, i, id, ks[i], sc.Dict()[codes[i]], xs[i], r.id, r.k, r.s, r.x)
		}
		if i > 0 && r.add < phys[i-1].add {
			t.Fatalf("%s: row %d committed at %d after a row at %d", label, i, r.add, phys[i-1].add)
		}
	}
	var dead []int // physical rows with a tombstone
	for i, r := range phys {
		if r.del > 0 {
			dead = append(dead, i)
		}
	}
	snaps := []int64{0}
	for s := max(floor, 1); s <= lastTS; s++ {
		snaps = append(snaps, s)
	}
	for _, snap := range snaps {
		prefix := len(phys)
		if snap > 0 {
			prefix = sort.Search(len(phys), func(i int) bool { return phys[i].add > snap })
		}
		if got := tab.RowsAsOf(snap); got != prefix {
			t.Fatalf("%s: RowsAsOf(%d) = %d, want %d", label, snap, got, prefix)
		}
		sel := vec.NewBitvec(prefix)
		sel.SetAll()
		tab.FilterVisible(snap, 0, prefix, sel)
		hidden := 0
		for _, i := range dead {
			if r := phys[i]; i >= prefix || (snap > 0 && r.del > snap) {
				continue
			}
			hidden++
			if sel.Words()[i>>6]>>(uint(i)&63)&1 == 1 {
				t.Fatalf("%s: snapshot %d: row %d (id %d, deleted at %d) is visible", label, snap, i, phys[i].id, phys[i].del)
			}
		}
		if sel.Count() != prefix-hidden {
			t.Fatalf("%s: snapshot %d: %d rows visible, want %d", label, snap, sel.Count(), prefix-hidden)
		}
	}
}
