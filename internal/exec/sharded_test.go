package exec

import (
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Sharded identity matrix.  Value-range sharding must be invisible to
// results: at every shard count {1,4,16} × DOP {1,2,8} × sealed-only,
// live main+delta and post-merge storage, sharded scans, shard-fed
// aggregations (per-shard string dictionaries and DOUBLE inputs
// included), relation-fed ones over the merged relation (string columns
// meeting in its union dictionary), and joins of independently cut
// tables return the flat layout's relation — strings compared decoded (Relation.Equal),
// since every shard carries its own dictionary — and each arm's relation
// and counters are byte-identical across DOPs.  Counters are NOT compared
// across shard counts: pruning changes the bytes touched — that is the
// whole point (E25 gates the drop).

var shardCounts = []int{1, 4, 16}

// shardTwins builds one flat table plus sharded twins at every shard
// count, all carrying the identical MVCC history: base rows sealed,
// then `extra` committed inserts at ts 1..extra — every fifth carrying a
// region no dictionary has seen — and tombstones over base and delta
// rows.  DML routes to the owning shard by key with a fresh global
// sequence, mirroring the engine's sharded write path.
func shardTwins(t testing.TB, n, extra int) (*colstore.Table, map[int]*colstore.ShardedTable) {
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

	twins := make(map[int]*colstore.ShardedTable, len(shardCounts))
	for _, k := range shardCounts {
		st, err := colstore.ShardTable(flat, "custkey", k)
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
			region = "NEW" + itoa(i%13)
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
				seqc, err := sh.IntCol(colstore.ShardSeqCol)
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
func mergeTwins(t testing.TB, flat *colstore.Table, twins map[int]*colstore.ShardedTable) {
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
		{"live@" + itoa(int(half)), extra, half, false},
		{"merged", extra, snapLatest, true},
	}
}

// stateTwins builds shardTwins in one storage state.
func stateTwins(t testing.TB, n, extra int, merged bool) (*colstore.Table, map[int]*colstore.ShardedTable) {
	flat, twins := shardTwins(t, n, extra)
	if merged {
		mergeTwins(t, flat, twins)
	}
	return flat, twins
}

type shardArm struct {
	rel *Relation
	w   energy.Counters
}

func runNodeArm(t testing.TB, node Node, snap int64, dop int) shardArm {
	t.Helper()
	ctx := NewCtx()
	ctx.SnapTS = snap
	ctx.Lease = NewLease(dop)
	rel, err := node.Run(ctx)
	must(t, err)
	return shardArm{rel, ctx.Meter.Snapshot()}
}

// checkShardMatrix runs flat vs every shard count and asserts: the flat
// arm's relation is reproduced by every sharded arm (strings decoded),
// and within every arm the relation and counters are DOP-invariant.
func checkShardMatrix(t *testing.T, snap int64, flatNode func() Node, shardNode func(k int) Node) {
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
					func() Node { return &Scan{Source: colstore.OneShard(flat), Select: sel, Preds: ps} },
					func(k int) Node { return &Scan{Source: twins[k], Select: sel, Preds: ps} },
				)
			})
		}
	}
}

func TestShardedAggByteIdentityMatrix(t *testing.T) {
	const n = 200_000
	cases := []struct {
		name    string
		sel     []string
		groupBy []string
		aggs    []expr.AggSpec
		preds   []expr.Pred
		opaque  bool // hide the scan: the relation feeder folds the merged relation
	}{
		{
			// Int group key: the per-shard fused path with first-sequence
			// group ordering.
			name: "int-group-fused", sel: []string{"grp", "val", "custkey"},
			groupBy: []string{"grp"},
			aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount},
				{Func: expr.AggMin, Col: "custkey"}, {Func: expr.AggMax, Col: "val"},
			},
			preds: []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 14)}},
		},
		{
			// Global aggregate, key-pruned.
			name: "global-fused", sel: []string{"val", "custkey"},
			aggs:  []expr.AggSpec{{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount}},
			preds: []expr.Pred{{Col: "custkey", Op: vec.GE, Val: expr.IntVal(1 << 15)}},
		},
		{
			// String group key: every shard folds its own dictionary's codes
			// and the cross-shard merge translates the keys through their
			// strings.
			name: "string-group-translated", sel: []string{"region", "val"},
			groupBy: []string{"region"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount}},
			preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}},
		},
		{
			// The same key relation-fed: every shard's codes meet in the
			// merged relation's union dictionary (mergeBySeq).
			name: "string-group-relation-fed", sel: []string{"region", "val"},
			groupBy: []string{"region"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount}},
			preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}},
			opaque:  true,
		},
		{
			// Float aggregate input, shard-fed: the order-free sum makes every
			// shard layout's partials add up to the flat table's bits.
			name: "float-agg-fused", sel: []string{"grp", "amount"},
			groupBy: []string{"grp"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}, {Func: expr.AggCount}},
			preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}},
		},
		{
			// The same, relation-fed from the merged relation.
			name: "float-agg-relation-fed", sel: []string{"grp", "amount"},
			groupBy: []string{"grp"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}, {Func: expr.AggCount}},
			preds:   []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 13)}},
			opaque:  true,
		},
	}
	for _, live := range storageStates(300) {
		flat, twins := stateTwins(t, n, live.extra, live.merged)
		for _, c := range cases {
			c := c
			t.Run(live.name+"/"+c.name, func(t *testing.T) {
				agg := func(src *colstore.ShardedTable) Node {
					var child Node = &Scan{Source: src, Select: c.sel, Preds: c.preds}
					if c.opaque {
						child = opaque(child)
					}
					return &HashAgg{Child: child, GroupBy: c.groupBy, Aggs: c.aggs}
				}
				checkShardMatrix(t, live.snap,
					func() Node { return agg(colstore.OneShard(flat)) },
					func(k int) Node { return agg(twins[k]) },
				)
			})
		}
	}
}

// TestOneShardIsFlat is the contract of the one table shape.  A table
// created flat is registered as one shard wrapped in place (OneShard);
// ShardTable(…, 1) is the other one-shard table, carrying a sequence
// column nothing reads.  Both must return the same relation AND charge
// the same Meter snapshot — no sequence column bound, no first-appearance
// tracking, no merge, and never a whole-shard prune: a lone shard whose
// zone is disjoint from the predicate, or that holds no rows at all,
// charges what its segment zone maps charge, not a shard-prune line — for
// the scan, the fused aggregate (string groups included: one shard has
// one dictionary), the materialized aggregate, and the fused probe, on
// sealed, live and empty tables.  The k ∈ {4,16} cuts agree on the
// relation (their counters differ: pruning changes the bytes).
func TestOneShardIsFlat(t *testing.T) {
	sel := []string{"custkey", "grp", "region", "amount", "val"}
	predSets := map[string][]expr.Pred{
		"range":    {{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 14)}},
		"disjoint": {{Col: "custkey", Op: vec.GT, Val: expr.IntVal(1 << 20)}}, // keys lie below 1<<16
	}
	sumVal := []expr.AggSpec{{Func: expr.AggSum, Col: "val"}, {Func: expr.AggCount}}
	dim := intDimSource()
	plans := map[string]func(s *Scan) Node{
		"scan":       func(s *Scan) Node { return s },
		"scan-all":   func(s *Scan) Node { s.Preds, s.Select = nil, nil; return s },
		"fused-agg":  func(s *Scan) Node { return &HashAgg{Child: s, GroupBy: []string{"grp"}, Aggs: sumVal} },
		"string-agg": func(s *Scan) Node { return &HashAgg{Child: s, GroupBy: []string{"region"}, Aggs: sumVal} },
		"global-agg": func(s *Scan) Node { return &HashAgg{Child: s, Aggs: sumVal} },
		"float-agg": func(s *Scan) Node {
			return &HashAgg{Child: s, GroupBy: []string{"grp"}, Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}}}
		},
		"fused-probe": func(s *Scan) Node {
			return &Join{Left: s, Right: dim, LeftKey: "grp", RightKey: "k"}
		},
	}
	for _, live := range []struct {
		name     string
		n, extra int
		snap     int64
	}{
		{"sealed", 150_000, 0, snapLatest},
		{"live", 150_000, 300, snapLatest},
		{"live@150", 150_000, 300, 150},
		{"empty", 0, 0, snapLatest},
	} {
		flat, twins := shardTwins(t, live.n, live.extra)
		wrapped := colstore.OneShard(flat)
		for pname, preds := range predSets {
			for name, mk := range plans {
				t.Run(live.name+"/"+pname+"/"+name, func(t *testing.T) {
					want := runNodeArm(t, mk(&Scan{Source: wrapped, Select: sel, Preds: preds}), live.snap, 1)
					if live.n > 0 && pname == "range" && want.rel.N == 0 {
						t.Fatal("degenerate plan: no output rows")
					}
					for _, dop := range []int{1, 3} {
						got := runNodeArm(t, mk(&Scan{Source: twins[1], Select: sel, Preds: preds}), live.snap, dop)
						if !reflect.DeepEqual(got.rel, want.rel) {
							t.Fatalf("dop=%d: k=1 relation diverged from flat", dop)
						}
						if got.w != want.w {
							t.Fatalf("dop=%d: k=1 Meter diverged from flat\n got %+v\nwant %+v", dop, got.w, want.w)
						}
					}
					for _, k := range []int{4, 16} {
						got := runNodeArm(t, mk(&Scan{Source: twins[k], Select: sel, Preds: preds}), live.snap, 1)
						if !got.rel.Equal(want.rel) {
							t.Fatalf("k=%d relation diverged from flat", k)
						}
					}
				})
			}
		}
	}
}

// TestShardedJoinByteIdentityMatrix: the one join over sharded inputs.
// Both sides are cut independently on their join keys, so their cuts
// differ and a key's shard index on one side says nothing about the
// other; each side's scan merges its shards by sequence, so the join sees
// the flat row order.  Both sides sharded, the probe side flat, and the
// build side flat all return the map oracle's relation, and each arm's
// relation and counters are DOP-invariant.
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
		want := runNodeArm(t, &mapJoin{
			Left:    &Scan{Source: colstore.OneShard(flatO), Select: lsel, Preds: lp},
			Right:   &Scan{Source: colstore.OneShard(flatC), Select: rsel, Preds: rp},
			LeftKey: "custkey", RightKey: "custkey",
		}, live.snap, 1)
		if want.rel.N == 0 {
			t.Fatal("degenerate join: no output rows")
		}

		for _, k := range shardCounts {
			k := k
			t.Run(live.name+"/k="+itoa(k), func(t *testing.T) {
				stC, err := colstore.ShardTable(flatC, "custkey", k)
				must(t, err)
				must(t, stC.Seal())
				if k > 1 && reflect.DeepEqual(stC.Cuts(), twinsO[k].Cuts()) {
					t.Fatal("independent cuts coincide: the matrix would not mix shard indexes")
				}
				for _, arm := range []struct {
					name        string
					left, right *colstore.ShardedTable
				}{
					{"both-sharded", twinsO[k], stC},
					{"probe-flat", colstore.OneShard(flatO), stC},
					{"build-flat", twinsO[k], colstore.OneShard(flatC)},
				} {
					t.Run(arm.name, func(t *testing.T) {
						join := func() Node {
							return &Join{
								Left:    &Scan{Source: arm.left, Select: lsel, Preds: lp},
								Right:   &Scan{Source: arm.right, Select: rsel, Preds: rp},
								LeftKey: "custkey", RightKey: "custkey",
							}
						}
						ref := runNodeArm(t, join(), live.snap, 1)
						if !ref.rel.Equal(want.rel) {
							t.Fatalf("k=%d: join diverged from the map oracle", k)
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

// TestShardPruningCounters asserts the energy contract of pruning: a
// skewed key predicate touches strictly fewer DRAM bytes as the shard
// count grows, while TuplesIn (logical rows considered) stays constant.
func TestShardPruningCounters(t *testing.T) {
	const n = 200_000
	flat, twins := shardTwins(t, n, 0)
	preds := []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(1 << 10)}}
	sel := []string{"custkey", "val"}
	flatArm := runNodeArm(t, &Scan{Source: colstore.OneShard(flat), Select: sel, Preds: preds}, snapLatest, 1)
	var prevBytes uint64
	for i, k := range shardCounts {
		a := runNodeArm(t, &Scan{Source: twins[k], Select: sel, Preds: preds}, snapLatest, 1)
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

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
