package shard

import (
	"math"
	"testing"

	"repro/internal/colstore"
)

func mustOK(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func flatFixture(t testing.TB, keys []int64) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("t", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "v", Type: colstore.Int64},
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
func seqOrder(t testing.TB, st *Table) map[int64][2]int64 {
	t.Helper()
	rows := make(map[int64][2]int64)
	for si, sh := range st.Shards() {
		kc, err := sh.IntCol("k")
		mustOK(t, err)
		vc, err := sh.IntCol("v")
		mustOK(t, err)
		qc, err := sh.IntCol(SeqCol)
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
	st, err := Cut(flat, "k", 4)
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
	st, err := Cut(flat, "k", 8)
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
	st2, err := Cut(flat2, "k", 3)
	mustOK(t, err)
	home := st2.ShardFor(7)
	if st2.Shard(home).Rows() != 4 {
		t.Fatalf("duplicate keys split across shards")
	}

	if _, err := Cut(flat, "k", 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := Cut(flat, "v2", 2); err == nil {
		t.Fatal("missing shard column must error")
	}
	ftab := colstore.NewTable("f", colstore.Schema{{Name: "x", Type: colstore.Float64}})
	mustOK(t, ftab.Writer().Float64("x", 1.5).Close())
	mustOK(t, ftab.Seal())
	if _, err := Cut(ftab, "x", 2); err == nil {
		t.Fatal("non-BIGINT shard column must error")
	}
}

func TestShardedAppendAndRecoverSeq(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30, 40})
	st, err := Cut(flat, "k", 2)
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

func TestRebalanceCleanNarrowsBounds(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30, 40, 50, 60, 70, 80})
	st, err := Cut(flat, "k", 2)
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

	stats, err := st.Rebalance(0)
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
		// Rows() > 0 with no delta rows: sealed, and nothing left to merge.
		if sh.Rows() == 0 || sh.DeltaRows() > 0 {
			t.Fatal("rebalanced shards must be sealed with empty deltas")
		}
	}
}

func TestRebalanceDefersUnderLiveSnapshot(t *testing.T) {
	flat := flatFixture(t, []int64{10, 20, 30, 40})
	st, err := Cut(flat, "k", 2)
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
