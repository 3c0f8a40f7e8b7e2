package exec

import (
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// These tests pin the main/delta union contract: a scan over a sealed
// main plus a live delta (appends and tombstones at mixed timestamps)
// returns byte-identical relations and attributed counters at every
// DOP and snapshot, and re-sealing the delta (Merge) changes neither
// the visible relation nor the DOP-invariance — only the bytes touched.

// deltaOrdersTable seals a main of n rows, then applies extra inserts
// at commit timestamps 1..extra and tombstones over both main and delta
// rows at timestamps 1000+.
func deltaOrdersTable(t testing.TB, n, extra int) *colstore.Table {
	t.Helper()
	tab := ordersTable(t, n)
	lsn := uint64(1)
	for i := 0; i < extra; i++ {
		_, err := tab.ApplyInsert(int64(i+1), lsn,
			int64(1_000_000+i), int64(i%40), "ASIA", float64(i)+0.5, int64(15000))
		must(t, err)
		lsn++
	}
	// Tombstone every 37th main row and a handful of delta rows.
	for i := 0; i < n/37; i++ {
		must(t, tab.ApplyDelete(1000+int64(i), lsn, tab.RowID(i*37)))
		lsn++
	}
	for i := 0; i < extra/10; i++ {
		must(t, tab.ApplyDelete(2000+int64(i), lsn, tab.RowID(n+i*10)))
		lsn++
	}
	return tab
}

type scanArm struct {
	rel *Relation
	w   energy.Counters
}

// scanBothWays runs the same projection+predicates serially and at DOPs
// 1/2/4/8, asserting every arm returns identical relation bytes and
// identical attributed counters, and returns the common result.
func scanBothWays(t *testing.T, tab *colstore.Table, snap int64) scanArm {
	t.Helper()
	sel := []string{"id", "custkey", "amount"}
	preds := []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(20)}}
	base := func() scanArm {
		ctx := NewCtx()
		ctx.SnapTS = snap
		rel, err := (&Scan{Source: tab, Select: sel, Preds: preds}).Run(ctx)
		must(t, err)
		return scanArm{rel, ctx.Meter.Snapshot()}
	}()
	for _, dop := range []int{1, 2, 4, 8} {
		ctx := NewCtx()
		ctx.SnapTS = snap
		ctx.Lease = NewLease(dop)
		rel, err := (&Scan{Source: tab, Select: sel, Preds: preds}).Run(ctx)
		must(t, err)
		if !reflect.DeepEqual(rel, base.rel) {
			t.Fatalf("snap=%d dop=%d: parallel relation diverged from serial", snap, dop)
		}
		if w := ctx.Meter.Snapshot(); w != base.w {
			t.Fatalf("snap=%d dop=%d: counters diverged\n got %+v\nwant %+v", snap, dop, w, base.w)
		}
	}
	return base
}

// TestScanMainDeltaDOPInvariant: with a live delta and tombstones, the
// scan is a pure function of (snapshot, predicates) — identical
// relations and counters serially and at every DOP, at the latest
// snapshot and at historical ones that split the delta.
func TestScanMainDeltaDOPInvariant(t *testing.T) {
	tab := deltaOrdersTable(t, 4096, 300)
	for _, snap := range []int64{snapLatest, 150, 1500} {
		arm := scanBothWays(t, tab, snap)
		if arm.rel.N == 0 {
			t.Fatalf("snap=%d: empty result", snap)
		}
	}
	// Snapshot prefixes differ: snap=150 must not see inserts 151+.
	n150 := tab.RowsAsOf(150)
	nAll := tab.RowsAsOf(snapLatest)
	if n150 >= nAll || n150 != 4096+150 {
		t.Fatalf("RowsAsOf(150)=%d, RowsAsOf(latest)=%d", n150, nAll)
	}
}

// TestMergePreservesScanExactly: re-sealing the delta (Merge at horizon
// 0, dropping every tombstone) leaves the visible relation byte-
// identical at every DOP while strictly lowering the bytes a scan
// touches (raw delta tail and tombstone checks are gone).
func TestMergePreservesScanExactly(t *testing.T) {
	tab := deltaOrdersTable(t, 4096, 300)
	pre := scanBothWays(t, tab, snapLatest)

	st, err := tab.Merge(0)
	must(t, err)
	if !st.Rebuilt || st.Dropped == 0 {
		t.Fatalf("merge with tombstones did not rebuild: %+v", st)
	}
	if tab.DeltaRows() != 0 || tab.HasTombstones() {
		t.Fatalf("merge left delta rows=%d tombstones=%v", tab.DeltaRows(), tab.HasTombstones())
	}

	post := scanBothWays(t, tab, snapLatest)
	if !post.rel.Equal(pre.rel) {
		t.Fatal("merge changed the visible relation")
	}
	if post.w.BytesReadDRAM >= pre.w.BytesReadDRAM {
		t.Fatalf("merge did not lower scan bytes: pre=%d post=%d",
			pre.w.BytesReadDRAM, post.w.BytesReadDRAM)
	}

	// Second merge over a clean table is a no-op tail seal of nothing.
	if _, err := tab.Merge(0); err == nil {
		res := scanBothWays(t, tab, snapLatest)
		if !res.rel.Equal(pre.rel) {
			t.Fatal("idempotent re-merge changed the relation")
		}
	}
}

// TestMergeHorizonKeepsLiveReaders: a merge bounded by a live reader's
// snapshot keeps tombstones above the horizon, so the reader's view
// survives compaction; a later full merge retires them.
func TestMergeHorizonKeepsLiveReaders(t *testing.T) {
	tab := deltaOrdersTable(t, 4096, 300)
	// Reader pinned at snap=1010: deletes from ts 1011+ must stay
	// invisible-but-present for it.
	reader := scanBothWays(t, tab, 1010)

	st, err := tab.Merge(1010)
	must(t, err)
	if !tab.HasTombstones() {
		t.Fatalf("horizon merge dropped tombstones above the horizon: %+v", st)
	}
	after := scanBothWays(t, tab, 1010)
	if !after.rel.Equal(reader.rel) {
		t.Fatal("horizon-bounded merge changed a live reader's view")
	}

	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	if tab.HasTombstones() {
		t.Fatal("full merge left tombstones")
	}
}
