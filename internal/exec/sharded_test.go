package exec_test

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	//lint:allow layering: these matrices check E25's sharded read against the served Scan, HashAgg and Join it must reproduce, and keep their exec test IDs
	"repro/internal/experiments/shard"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Sharded identity matrix: E25's cut tables (internal/experiments/shard)
// read through shard.Scan, against the served Scan, HashAgg and Join over
// the flat table — the operators every shard read is built from.  These
// tests keep the IDs they had when the shard list was served code, so
// they stay beside those operators in an external test package.
// Value-range sharding must be invisible to
// results: at every shard count {1,4,16} × DOP {1,2,8} × sealed-only,
// live main+delta and post-merge storage, the sequence-merged read of a
// cut table returns the served flat Scan's relation — strings compared
// decoded (Relation.Equal), since every shard carries its own dictionary
// — and each arm's relation and counters are byte-identical across DOPs.
// Counters are NOT compared across shard counts: pruning changes the
// bytes touched — that is the whole point (E25 gates the drop).

// snapLatest is the snapshot that reads everything committed so far.
const snapLatest int64 = 0

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

var shardCounts = []int{1, 4, 16}

// shardTwins builds one flat table plus sharded twins at every shard
// count, all carrying the identical MVCC history: base rows sealed,
// then `extra` committed inserts at ts 1..extra — every fifth carrying a
// region no dictionary has seen — and tombstones over base and delta
// rows.  DML routes to the owning shard by key with a fresh global
// sequence, mirroring the engine's sharded write path.
func shardTwins(t testing.TB, n, extra int) (*colstore.Table, map[int]*shard.Table) {
	t.Helper()
	flat := colstore.NewTable("orders", colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "grp", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "val", Type: colstore.Int64},
	})
	custkey := synth.UniformInts(31, n, 1<<16)
	grp := synth.UniformInts(32, n, 24)
	rcodes := synth.UniformInts(33, n, int64(len(workload.RegionNames)))
	regions := make([]string, n)
	for i, c := range rcodes {
		regions[i] = workload.RegionNames[c]
	}
	amounts := make([]float64, n)
	for i := range amounts {
		amounts[i] = float64(i%883) + 0.5
	}
	val := synth.UniformInts(34, n, 1<<20)
	must(t, flat.Writer().Int64("custkey", custkey...).Close())
	must(t, flat.Writer().Int64("grp", grp...).Close())
	must(t, flat.Writer().String("region", regions...).Close())
	must(t, flat.Writer().Float64("amount", amounts...).Close())
	must(t, flat.Writer().Int64("val", val...).Close())
	must(t, flat.Seal())

	twins := make(map[int]*shard.Table, len(shardCounts))
	for _, k := range shardCounts {
		st, err := shard.Cut(flat, "custkey", k)
		must(t, err)
		must(t, st.Seal())
		twins[k] = st
	}

	// Identical committed history on every twin.  flatIDs[i] is the flat
	// row id of the i-th insert; stIDs[k][i] its (shard, id) twin.
	type loc struct {
		sh *colstore.Table
		id int64
	}
	stIDs := make(map[int][]loc)
	var flatIDs []int64
	lsn := uint64(1)
	ts := int64(0)
	for i := 0; i < extra; i++ {
		ts++
		region := workload.RegionNames[i%len(workload.RegionNames)]
		if i%5 == 4 {
			region = "NEW" + strconv.Itoa(i%13)
		}
		vals := []any{
			int64((i * 7919) % (1 << 16)), int64(i % 24), region,
			float64(i) + 0.25, int64(i % (1 << 20)),
		}
		id, err := flat.ApplyInsert(ts, lsn, vals...)
		must(t, err)
		flatIDs = append(flatIDs, id)
		for _, k := range shardCounts {
			st := twins[k]
			si, row, err := st.Route(vals)
			must(t, err)
			sh := st.Shard(si)
			sid, err := sh.ApplyInsert(ts, lsn, row...)
			must(t, err)
			stIDs[k] = append(stIDs[k], loc{sh, sid})
		}
		lsn++
	}
	if extra > 0 {
		// Locate each twin's copy of base row r by its sequence (= r).
		locate := make(map[int]map[int64]loc)
		for _, k := range shardCounts {
			locate[k] = make(map[int64]loc, n)
			for _, sh := range twins[k].Shards() {
				seqc, err := sh.IntCol(shard.SeqCol)
				must(t, err)
				for r := 0; r < sh.Rows(); r++ {
					locate[k][seqc.Get(r)] = loc{sh, sh.RowID(r)}
				}
			}
		}
		for i := 0; i < n/41; i++ {
			ts++
			r := i * 41
			must(t, flat.ApplyDelete(ts, lsn, flat.RowID(r)))
			for _, k := range shardCounts {
				l := locate[k][int64(r)]
				must(t, l.sh.ApplyDelete(ts, lsn, l.id))
			}
			lsn++
		}
		for i := 0; i < extra/10; i++ {
			ts++
			must(t, flat.ApplyDelete(ts, lsn, flatIDs[i*10]))
			for _, k := range shardCounts {
				l := stIDs[k][i*10]
				must(t, l.sh.ApplyDelete(ts, lsn, l.id))
			}
			lsn++
		}
	}
	return flat, twins
}

// mergeTwins merges every twin's delta into its main with no reader in
// flight: tombstoned rows go and each string dictionary is re-sorted.
func mergeTwins(t testing.TB, flat *colstore.Table, twins map[int]*shard.Table) {
	t.Helper()
	_, err := flat.Merge(0)
	must(t, err)
	for _, k := range shardCounts {
		for _, sh := range twins[k].Shards() {
			_, err := sh.Merge(0)
			must(t, err)
		}
	}
}

type storageState struct {
	name   string
	extra  int
	snap   int64
	merged bool
}

// storageStates are the storage states every sharded matrix runs over,
// with `extra` committed inserts past the sealed base: sealed only, live
// main+delta at the latest snapshot and halfway through the inserts, and
// post-merge.
func storageStates(extra int) []storageState {
	half := int64(extra / 2)
	return []storageState{
		{"sealed", 0, snapLatest, false},
		{"live", extra, snapLatest, false},
		{"live@" + strconv.Itoa(int(half)), extra, half, false},
		{"merged", extra, snapLatest, true},
	}
}

// stateTwins builds shardTwins in one storage state.
func stateTwins(t testing.TB, n, extra int, merged bool) (*colstore.Table, map[int]*shard.Table) {
	flat, twins := shardTwins(t, n, extra)
	if merged {
		mergeTwins(t, flat, twins)
	}
	return flat, twins
}

type shardArm struct {
	rel *exec.Relation
	w   energy.Counters
}

func runNodeArm(t testing.TB, node exec.Node, snap int64, dop int) shardArm {
	t.Helper()
	ctx := exec.NewCtx()
	ctx.SnapTS = snap
	ctx.Lease = exec.NewLease(dop)
	rel, err := node.Run(ctx)
	must(t, err)
	return shardArm{rel, ctx.Meter.Snapshot()}
}

// checkShardMatrix runs flat vs every shard count and asserts: the flat
// arm's relation is reproduced by every sharded arm (strings decoded),
// and within every arm the relation and counters are DOP-invariant.
func checkShardMatrix(t *testing.T, snap int64, flatNode func() exec.Node, shardNode func(k int) exec.Node) {
	t.Helper()
	want := runNodeArm(t, flatNode(), snap, 1)
	for _, dop := range []int{2, 8} {
		a := runNodeArm(t, flatNode(), snap, dop)
		if !reflect.DeepEqual(a.rel, want.rel) || a.w != want.w {
			t.Fatalf("flat arm not DOP-invariant at dop=%d", dop)
		}
	}
	for _, k := range shardCounts {
		ref := runNodeArm(t, shardNode(k), snap, 1)
		if !ref.rel.Equal(want.rel) {
			t.Fatalf("k=%d: sharded relation diverged from flat\n got N=%d %v\nwant N=%d %v",
				k, ref.rel.N, ref.rel.ColNames(), want.rel.N, want.rel.ColNames())
		}
		for _, dop := range []int{2, 8} {
			a := runNodeArm(t, shardNode(k), snap, dop)
			if !reflect.DeepEqual(a.rel, ref.rel) || a.w != ref.w {
				t.Fatalf("k=%d dop=%d: sharded arm not DOP-invariant", k, dop)
			}
		}
	}
}

func TestShardedScanByteIdentityMatrix(t *testing.T) {
	const n = 200_000
	preds := map[string][]expr.Pred{
		"full":     nil,
		"key-skew": {{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 11)}},
		"key-mid": {{Col: "custkey", Op: vec.GE, Val: expr.IntVal(1 << 14)},
			{Col: "val", Op: vec.LT, Val: expr.IntVal(1 << 19)}},
		"nonkey": {{Col: "grp", Op: vec.EQ, Val: expr.IntVal(7)}},
	}
	sel := []string{"custkey", "grp", "region", "amount", "val"} // a string projection
	for _, live := range storageStates(400) {
		flat, twins := stateTwins(t, n, live.extra, live.merged)
		for pname, ps := range preds {
			ps := ps
			t.Run(live.name+"/"+pname, func(t *testing.T) {
				checkShardMatrix(t, live.snap,
					func() exec.Node { return &exec.Scan{Source: flat, Select: sel, Preds: ps} },
					func(k int) exec.Node { return &shard.Scan{Source: twins[k], Select: sel, Preds: ps} },
				)
			})
		}
	}
}

// TestShardPruningCounters asserts the energy contract of pruning: a
// skewed key predicate touches strictly fewer DRAM bytes as the shard
// count grows, while TuplesIn (logical rows considered) stays constant.
func TestShardPruningCounters(t *testing.T) {
	const n = 200_000
	flat, twins := shardTwins(t, n, 0)
	preds := []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 10)}}
	sel := []string{"custkey", "val"}
	flatArm := runNodeArm(t, &exec.Scan{Source: flat, Select: sel, Preds: preds}, snapLatest, 1)
	var prevBytes uint64
	for i, k := range shardCounts {
		a := runNodeArm(t, &shard.Scan{Source: twins[k], Select: sel, Preds: preds}, snapLatest, 1)
		if a.w.TuplesIn < uint64(n) {
			t.Fatalf("k=%d: logical rows considered %d < %d (pruning must charge TuplesIn)", k, a.w.TuplesIn, n)
		}
		if i > 0 && a.w.BytesReadDRAM >= prevBytes {
			t.Fatalf("k=%d: pruning did not shed bytes: %d >= %d", k, a.w.BytesReadDRAM, prevBytes)
		}
		prevBytes = a.w.BytesReadDRAM
	}
	if flatArm.rel.N == 0 {
		t.Fatal("degenerate predicate: no rows selected")
	}
}

// TestShardedAggByteIdentityMatrix: an aggregation over the
// sequence-merged read of a cut table folds the merged relation (the
// relation feeder: shard.Scan is not an exec.Scan), so its groups come
// out in the flat scan's first-seen order and a string key's per-shard
// codes meet in the merged relation's union dictionary.  Every shard
// count returns the flat table's aggregate, DOP-invariant per arm.
func TestShardedAggByteIdentityMatrix(t *testing.T) {
	const n = 200_000
	cases := []struct {
		name    string
		sel     []string
		groupBy []string
		aggs    []expr.AggSpec
		preds   []expr.Pred
	}{
		{
			// String group key: every shard's codes meet in the merged
			// relation's union dictionary (mergeBySeq).
			name: "string-group-relation-fed", sel: []string{"region", "val"},
			groupBy: []string{"region"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount}},
			preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}},
		},
		{
			// Float aggregate input: the order-free sum makes every layout's
			// rows add up to the flat table's bits.
			name: "float-agg-relation-fed", sel: []string{"grp", "amount"},
			groupBy: []string{"grp"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}, {Func: expr.AggCount}},
			preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}},
		},
	}
	for _, live := range storageStates(300) {
		flat, twins := stateTwins(t, n, live.extra, live.merged)
		for _, c := range cases {
			t.Run(live.name+"/"+c.name, func(t *testing.T) {
				agg := func(child exec.Node) exec.Node {
					return &exec.HashAgg{Child: child, GroupBy: c.groupBy, Aggs: c.aggs}
				}
				checkShardMatrix(t, live.snap,
					func() exec.Node { return agg(&exec.Scan{Source: flat, Select: c.sel, Preds: c.preds}) },
					func(k int) exec.Node { return agg(&shard.Scan{Source: twins[k], Select: c.sel, Preds: c.preds}) },
				)
			})
		}
	}
}

// TestShardedJoinByteIdentityMatrix: the one exec.Join over cut tables.
// Both sides are cut independently on their join keys, so their cuts
// differ and a key's shard index on one side says nothing about the
// other; each side's read merges its shards by sequence, so the join sees
// the flat row order.  Both sides cut, the probe side flat, and the build
// side flat all return the flat tables' join, and each arm's relation and
// counters are DOP-invariant.
func TestShardedJoinByteIdentityMatrix(t *testing.T) {
	const n = 120_000
	const nCust = 1 << 12
	for _, live := range []struct {
		name  string
		extra int
		snap  int64
	}{
		{"sealed", 0, snapLatest},
		{"live", 200, snapLatest},
	} {
		flatO, twinsO := shardTwins(t, n, live.extra)

		flatC := colstore.NewTable("cust", colstore.Schema{
			{Name: "custkey", Type: colstore.Int64},
			{Name: "tier", Type: colstore.Int64},
		})
		ck := make([]int64, nCust)
		tier := make([]int64, nCust)
		for i := range ck {
			ck[i] = int64(i * (1 << 16) / nCust) // spans the orders key domain
			tier[i] = int64(i % 5)
		}
		must(t, flatC.Writer().Int64("custkey", ck...).Close())
		must(t, flatC.Writer().Int64("tier", tier...).Close())
		must(t, flatC.Seal())

		lp := []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}}
		rp := []expr.Pred{{Col: "tier", Op: vec.NE, Val: expr.IntVal(4)}}
		lsel := []string{"custkey", "grp", "val"}
		rsel := []string{"custkey", "tier"}
		flatL := func() exec.Node { return &exec.Scan{Source: flatO, Select: lsel, Preds: lp} }
		flatR := func() exec.Node { return &exec.Scan{Source: flatC, Select: rsel, Preds: rp} }
		want := runNodeArm(t, &exec.Join{Left: flatL(), Right: flatR(), LeftKey: "custkey", RightKey: "custkey"}, live.snap, 1)
		if want.rel.N == 0 {
			t.Fatal("degenerate join: no output rows")
		}

		for _, k := range shardCounts {
			t.Run(live.name+"/k="+strconv.Itoa(k), func(t *testing.T) {
				stC, err := shard.Cut(flatC, "custkey", k)
				must(t, err)
				must(t, stC.Seal())
				if k > 1 && reflect.DeepEqual(stC.Cuts(), twinsO[k].Cuts()) {
					t.Fatal("independent cuts coincide: the matrix would not mix shard indexes")
				}
				cutL := func() exec.Node { return &shard.Scan{Source: twinsO[k], Select: lsel, Preds: lp} }
				cutR := func() exec.Node { return &shard.Scan{Source: stC, Select: rsel, Preds: rp} }
				for _, arm := range []struct {
					name        string
					left, right func() exec.Node
				}{
					{"both-sharded", cutL, cutR},
					{"probe-flat", flatL, cutR},
					{"build-flat", cutL, flatR},
				} {
					t.Run(arm.name, func(t *testing.T) {
						join := func() exec.Node {
							return &exec.Join{Left: arm.left(), Right: arm.right(), LeftKey: "custkey", RightKey: "custkey"}
						}
						ref := runNodeArm(t, join(), live.snap, 1)
						if !ref.rel.Equal(want.rel) {
							t.Fatalf("k=%d: join diverged from the flat tables' join", k)
						}
						for _, dop := range []int{2, 8} {
							a := runNodeArm(t, join(), live.snap, dop)
							if !reflect.DeepEqual(a.rel, ref.rel) || a.w != ref.w {
								t.Fatalf("k=%d dop=%d: join not DOP-invariant", k, dop)
							}
						}
					})
				}
			})
		}
	}
}
