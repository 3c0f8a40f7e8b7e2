package colstore

import (
	"math"
	"testing"
)

func mustOK(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func flatFixture(t testing.TB, keys []int64) *Table {
	t.Helper()
	tab := NewTable("t", Schema{
		{Name: "k", Type: Int64},
		{Name: "v", Type: Int64},
	})
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i) * 3
	}
	mustOK(t, tab.Writer().Int64("k", keys...).Close())
	mustOK(t, tab.Writer().Int64("v", vals...).Close())
	mustOK(t, tab.Seal())
	return tab
}

// seqOrder reads every shard's (seq, k, v) triples and asserts sequences
// are strictly ascending within each shard; returns rows keyed by seq.
func seqOrder(t testing.TB, st *ShardedTable) map[int64][2]int64 {
	t.Helper()
	rows := make(map[int64][2]int64)
	for si, sh := range st.Shards() {
		kc, err := sh.IntCol("k")
		mustOK(t, err)
		vc, err := sh.IntCol("v")
		mustOK(t, err)
		qc, err := sh.IntCol(ShardSeqCol)
		mustOK(t, err)
		prev := int64(-1)
		for r := 0; r < sh.Rows(); r++ {
			q := qc.Get(r)
			if q <= prev {
				t.Fatalf("shard %d: sequence not ascending at row %d: %d after %d", si, r, q, prev)
			}
			prev = q
			if _, dup := rows[q]; dup {
				t.Fatalf("sequence %d appears in two shards", q)
			}
			rows[q] = [2]int64{kc.Get(r), vc.Get(r)}
		}
	}
	return rows
}

func TestShardTableRoutingAndSeq(t *testing.T) {
	keys := []int64{50, 10, 90, 10, 70, 30, 10, 90, 20, 60}
	flat := flatFixture(t, keys)
	st, err := ShardTable(flat, "k", 4)
	mustOK(t, err)
	if st.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", st.NumShards())
	}
	if st.Rows() != len(keys) {
		t.Fatalf("Rows = %d, want %d", st.Rows(), len(keys))
	}
	rows := seqOrder(t, st)
	if len(rows) != len(keys) {
		t.Fatalf("got %d distinct sequences, want %d", len(rows), len(keys))
	}
	for i, k := range keys {
		got := rows[int64(i)]
		if got[0] != k || got[1] != int64(i)*3 {
			t.Fatalf("seq %d: got (%d,%d), want (%d,%d)", i, got[0], got[1], k, i*3)
		}
	}
	// Equal keys land in one shard: all three 10s in ShardFor(10).
	ten := st.ShardFor(10)
	kc, err := st.Shard(ten).IntCol("k")
	mustOK(t, err)
	var tens int
	for r := 0; r < st.Shard(ten).Rows(); r++ {
		if kc.Get(r) == 10 {
			tens++
		}
	}
	if tens != 3 {
		t.Fatalf("shard %d holds %d copies of key 10, want all 3", ten, tens)
	}
	// Routing agrees with cuts: every stored key belongs to its shard.
	cuts := st.Cuts()
	if cuts[len(cuts)-1] != math.MaxInt64 {
		t.Fatal("last cut must be +inf")
	}
	for si, sh := range st.Shards() {
		kc, err := sh.IntCol("k")
		mustOK(t, err)
		for r := 0; r < sh.Rows(); r++ {
			if got := st.ShardFor(kc.Get(r)); got != si {
				t.Fatalf("key %d stored in shard %d but routed to %d", kc.Get(r), si, got)
			}
		}
	}
}

func TestShardTableDegenerate(t *testing.T) {
	// More shards than rows: trailing shards stay empty but routing holds.
	flat := flatFixture(t, []int64{5, 5, 9})
	st, err := ShardTable(flat, "k", 8)
	mustOK(t, err)
	if st.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", st.Rows())
	}
	seqOrder(t, st)
	for i, sh := range st.Shards() {
		kc, err := sh.IntCol("k")
		mustOK(t, err)
		min, _, ok := kc.MinMax()
		if !ok {
			continue
		}
		if got := st.ShardFor(min); got != i {
			t.Fatalf("zone min %d of shard %d routes to %d", min, i, got)
		}
	}
	// All-duplicate keys collapse into one shard (values never straddle).
	flat2 := flatFixture(t, []int64{7, 7, 7, 7})
	st2, err := ShardTable(flat2, "k", 3)
	mustOK(t, err)
	home := st2.ShardFor(7)
	if st2.Shard(home).Rows() != 4 {
		t.Fatalf("duplicate keys split across shards")
	}

	if _, err := ShardTable(flat, "k", 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := ShardTable(flat, "v2", 2); err == nil {
		t.Fatal("missing shard column must error")
	}
	ftab := NewTable("f", Schema{{Name: "x", Type: Float64}})
	mustOK(t, ftab.Writer().Float64("x", 1.5).Close())
	mustOK(t, ftab.Seal())
	if _, err := ShardTable(ftab, "x", 2); err == nil {
		t.Fatal("non-BIGINT shard column must error")
	}
}

// TestOneShardWrapsInPlace: a flat table registered as one shard is the
// same table — no copy, no hidden column, its own name — and the
// operations that need a shard column say so instead of guessing.
func TestOneShardWrapsInPlace(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30})
	st := OneShard(flat)
	if st.Name != flat.Name || st.ShardCol != "" || st.NumShards() != 1 || st.Shard(0) != flat {
		t.Fatalf("wrapper does not hold the table in place: %+v", st)
	}
	if got, want := st.Schema(), flat.Schema(); len(got) != len(want) || got.ColIndex(ShardSeqCol) >= 0 {
		t.Fatalf("wrapper schema %v, want the table's %v", got, want)
	}
	vals := []any{int64(40), int64(7)}
	if i, row, err := st.Route(vals); err != nil || i != 0 || len(row) != len(vals) {
		t.Fatalf("Route = shard %d row %v err %v, want the row as is on shard 0", i, row, err)
	}
	mustOK(t, st.Append(vals...))
	if flat.Rows() != 4 || st.Rows() != 4 || st.Bytes() != flat.Bytes() {
		t.Fatalf("append through the wrapper did not land in the table: %d/%d rows", flat.Rows(), st.Rows())
	}
	mustOK(t, st.Seal())
	st.RecoverSeq() // nothing stored, nothing to recover
	if _, err := st.Rebalance(SnapLatest); err == nil {
		t.Fatal("rebalancing a table without a shard column must error")
	}
	if !st.AlignedWith(OneShard(flatFixture(t, []int64{1}))) {
		t.Fatal("two one-shard tables share the trivial cut")
	}
}

func TestShardedAppendAndRecoverSeq(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30, 40})
	st, err := ShardTable(flat, "k", 2)
	mustOK(t, err)
	mustOK(t, st.Seal())
	mustOK(t, st.Append(int64(15), int64(100)))
	mustOK(t, st.Append(int64(35), int64(101)))
	if st.Rows() != 6 {
		t.Fatalf("Rows = %d, want 6", st.Rows())
	}
	rows := seqOrder(t, st)
	if rows[4] != [2]int64{15, 100} || rows[5] != [2]int64{35, 101} {
		t.Fatalf("appended rows misrouted: %v %v", rows[4], rows[5])
	}
	if err := st.Append("oops", int64(1)); err == nil {
		t.Fatal("non-int64 key must error")
	}

	// nextSeq recovery: a fresh container over the same shards (replay)
	// must resume past the highest stored sequence.
	st.nextSeq = 0
	st.RecoverSeq()
	if _, row, err := st.Route([]any{int64(16), int64(102)}); err != nil || row[2] != int64(6) {
		t.Fatalf("Route after RecoverSeq = %v (err %v), want sequence 6", row, err)
	}
}

func TestShardTableAlignedAndAlignedWith(t *testing.T) {
	flatA := flatFixture(t, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	a, err := ShardTable(flatA, "k", 4)
	mustOK(t, err)
	flatB := flatFixture(t, []int64{2, 4, 9})
	b, err := ShardTableAligned(flatB, "k", a)
	mustOK(t, err)
	if !a.AlignedWith(b) || !b.AlignedWith(a) {
		t.Fatal("aligned twin must satisfy AlignedWith both ways")
	}
	for _, k := range []int64{1, 2, 4, 5, 9, 100} {
		if a.ShardFor(k) != b.ShardFor(k) {
			t.Fatalf("key %d owned by different shard indexes", k)
		}
	}
	c, err := ShardTable(flatB, "k", 4)
	mustOK(t, err)
	if a.AlignedWith(c) {
		t.Fatal("independently cut tables must not report aligned")
	}
	if a.AlignedWith(nil) {
		t.Fatal("nil is never aligned")
	}
}

func TestRebalanceCleanNarrowsBounds(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30, 40, 50, 60, 70, 80})
	st, err := ShardTable(flat, "k", 2)
	mustOK(t, err)
	mustOK(t, st.Seal())
	// Skew all new rows into shard 0's range so the equi-depth cut drifts.
	lsn := uint64(1)
	for i := 0; i < 8; i++ {
		ts := int64(i + 1)
		si, row, err := st.Route([]any{int64(11 + i), int64(200 + i)})
		mustOK(t, err)
		_, err = st.Shard(si).ApplyInsert(ts, lsn, row...)
		mustOK(t, err)
		lsn++
	}
	before := seqOrder(t, st)
	cutsBefore := st.Cuts()

	stats, err := st.Rebalance(SnapLatest)
	mustOK(t, err)
	if stats.Deferred {
		t.Fatal("no live snapshot pins anything: rebalance must not defer")
	}
	if stats.RowsTotal != 16 || stats.RowsMoved == 0 {
		t.Fatalf("stats = %+v: want 16 rows with some moved", stats)
	}
	if stats.Work.BytesReadDRAM == 0 || stats.Work.BytesWrittenDRAM == 0 {
		t.Fatal("rebalance must price its row movement")
	}
	cutsAfter := st.Cuts()
	sameCuts := true
	for i := range cutsBefore {
		if cutsBefore[i] != cutsAfter[i] {
			sameCuts = false
		}
	}
	if sameCuts {
		t.Fatal("skewed insert load must move the equi-depth cut")
	}
	// Logical content identical, sequences preserved, shards balanced.
	after := seqOrder(t, st)
	if len(after) != len(before) {
		t.Fatalf("row count changed: %d -> %d", len(before), len(after))
	}
	for q, row := range before {
		if after[q] != row {
			t.Fatalf("seq %d changed across rebalance: %v -> %v", q, row, after[q])
		}
	}
	r0, r1 := st.Shard(0).Rows(), st.Shard(1).Rows()
	if r0 != 8 || r1 != 8 {
		t.Fatalf("equi-depth rebalance left %d/%d rows", r0, r1)
	}
	for _, sh := range st.Shards() {
		if !sh.Sealed() || sh.DeltaRows() > 0 {
			t.Fatal("rebalanced shards must be sealed with empty deltas")
		}
	}
}

func TestRebalanceDefersUnderLiveSnapshot(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30, 40})
	st, err := ShardTable(flat, "k", 2)
	mustOK(t, err)
	mustOK(t, st.Seal())
	si, row, err := st.Route([]any{int64(15), int64(1)})
	mustOK(t, err)
	_, err = st.Shard(si).ApplyInsert(100, 1, row...)
	mustOK(t, err)
	cutsBefore := st.Cuts()

	// Horizon 50 < commit ts 100: the delta row outlives the horizon.
	stats, err := st.Rebalance(50)
	mustOK(t, err)
	if !stats.Deferred {
		t.Fatal("live delta row must defer the rebalance")
	}
	cutsAfter := st.Cuts()
	for i := range cutsBefore {
		if cutsBefore[i] != cutsAfter[i] {
			t.Fatal("deferred rebalance must not move cuts")
		}
	}
	// Horizon past the commit: now it completes.
	stats, err = st.Rebalance(200)
	mustOK(t, err)
	if stats.Deferred {
		t.Fatal("horizon past all commits must complete")
	}
	seqOrder(t, st)
}
