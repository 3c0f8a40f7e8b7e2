package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/wal"
)

// Engine-level sharding contract: a value-range-sharded engine is
// observationally identical to a flat one under the same DML history —
// same relations, same recovery semantics — while the planner reports
// the pruning and fusion decisions sharding unlocks, and
// the rebalance pass rides the scheduler like any background query.

// shardedOrders builds an engine with the standard orders load cut into
// k shards on custkey.
func shardedOrders(t testing.TB, n, k int, opts ...Option) *Engine {
	t.Helper()
	e := Open(opts...)
	loadOrders(t, e, n)
	if _, err := e.ShardTable("orders", "custkey", k); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal("orders"); err != nil {
		t.Fatal(err)
	}
	return e
}

// shardedProbes extends snapshotQueries with shapes that exercise the
// sharded scan, fused-agg, and fallback paths.
func shardedProbes(t *testing.T, e *Engine) []any {
	t.Helper()
	out := snapshotQueries(t, e)
	for _, q := range []string{
		"SELECT custkey, region, amount FROM orders WHERE custkey < 40",
		"SELECT custkey, COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey < 120 GROUP BY custkey",
		"SELECT region, SUM(amount) AS rev FROM orders WHERE custkey >= 300 GROUP BY region",
	} {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, res.Rel)
	}
	return out
}

func TestShardedEngineMatchesFlatDML(t *testing.T) {
	const n = 4000
	flat := Open(WithDurability(wal.Local, 0))
	loadOrders(t, flat, n)
	writeScript(t, flat)

	for _, k := range []int{1, 4, 16} {
		e := shardedOrders(t, n, k, WithDurability(wal.Local, 0))
		writeScript(t, e)
		want := shardedProbes(t, flat)
		if got := shardedProbes(t, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: sharded relations diverged from flat after identical DML", k)
		}

		// A key-moving UPDATE: the new custkey crosses shard cuts, so the
		// sharded engine must re-route the row while the flat engine updates
		// in place — results still identical.
		move := "UPDATE orders SET custkey = 499 WHERE custkey = -5 AND amount > 35.0"
		execStmt(t, flat, move, time.Second)
		execStmt(t, e, move, time.Second)
		for _, check := range []string{
			"SELECT id, custkey, region, amount FROM orders WHERE custkey = 499",
			"SELECT id, custkey, region, amount FROM orders WHERE custkey = -5",
		} {
			fr, err := flat.Query(check)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := e.Query(check)
			if err != nil {
				t.Fatal(err)
			}
			if !sr.Rel.Equal(fr.Rel) {
				t.Fatalf("k=%d: key-moving update diverged at %q", k, check)
			}
		}
		// Undo so the next k starts from the same flat history.
		undo := "UPDATE orders SET custkey = -5 WHERE custkey = 499"
		execStmt(t, flat, undo, 2*time.Second)
	}
}

// TestOneShardEngineIsFlat is the k=1 identity through the engine: a
// table cut into ONE shard plans, reads, and writes exactly like the flat
// table — same relations, same query work, and the same statement work
// for INSERT/UPDATE/DELETE (victim search through the shared filter
// kernel, delta writes priced without the sequence column).  The REDO
// records legitimately differ (shard name, the stored 8-byte sequence),
// so each statement is compared net of its own commit's WAL work.
func TestOneShardEngineIsFlat(t *testing.T) {
	const n = 150_000 // three morsels
	flat := Open(WithDurability(wal.Local, 0))
	loadOrders(t, flat, n)
	one := shardedOrders(t, n, 1, WithDurability(wal.Local, 0))

	walWork := func(e *Engine) energy.Counters {
		_, _, _, w := e.txm.Stats()
		return w
	}
	at := time.Millisecond
	for _, stmt := range []string{
		"INSERT INTO orders VALUES (800001, -5, 'ASIA', 10.0, 15001), (800002, 7, 'ASIA', 20.0, 15001)",
		"UPDATE orders SET amount = 99.0, region = 'AFRICA' WHERE custkey = 7 AND amount < 400.0",
		"UPDATE orders SET custkey = 8 WHERE id < 70000 AND custkey = 7",
		"DELETE FROM orders WHERE custkey = 3 AND amount > 5000.0",
		"DELETE FROM orders WHERE id >= 800001",
	} {
		// work − ΔWAL must agree; Counters only add, so cross-add instead:
		// flat.Work + ΔWAL(one) == one.Work + ΔWAL(flat).
		fw, ow := walWork(flat), walWork(one) // the "before" halves of the deltas
		fr := execStmt(t, flat, stmt, at)
		or := execStmt(t, one, stmt, at)
		fw.Add(fr.Work)
		fw.Add(walWork(one))
		ow.Add(or.Work)
		ow.Add(walWork(flat))
		if fr.Matched != or.Matched || fr.Applied != or.Applied || fw != ow {
			t.Fatalf("%s:\nflat matched=%d applied=%d\nk=1  matched=%d applied=%d\nwork (cross-netted) %+v vs %+v",
				stmt, fr.Matched, fr.Applied, or.Matched, or.Applied, fw, ow)
		}
		at += time.Millisecond
	}
	for _, q := range []string{
		"SELECT id, custkey, region, amount FROM orders WHERE custkey < 40",
		"SELECT custkey, COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey < 120 GROUP BY custkey",
		"SELECT region, COUNT(*) AS n, SUM(day) AS d FROM orders GROUP BY region",
		"SELECT region, SUM(amount) AS rev FROM orders WHERE custkey >= 300 GROUP BY region",
		"SELECT COUNT(*), SUM(amount) FROM orders",
		// Disjoint from the key zone: a lone shard is still scanned (its
		// segment zone maps do the skipping), never whole-shard pruned.
		"SELECT COUNT(*) FROM orders WHERE custkey > 100000000",
	} {
		fr, err := flat.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		or, err := one.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !or.Rel.Equal(fr.Rel) {
			t.Fatalf("%s: k=1 relation diverged from flat", q)
		}
		if or.Work != fr.Work {
			t.Fatalf("%s: k=1 work diverged from flat\n got %+v\nwant %+v", q, or.Work, fr.Work)
		}
		if or.PlanInfo.FusedAgg != fr.PlanInfo.FusedAgg || or.PlanInfo.Explain != fr.PlanInfo.Explain {
			t.Fatalf("%s: k=1 plan decisions diverged from flat", q)
		}
		if n := or.PlanInfo.ShardsScanned + or.PlanInfo.ShardsPruned + fr.PlanInfo.ShardsScanned + fr.PlanInfo.ShardsPruned; n != 0 {
			t.Fatalf("%s: a one-shard plan counted %d whole-shard decisions", q, n)
		}
	}
}

func TestShardedWALReplay(t *testing.T) {
	const n, k = 4000, 4
	e1 := shardedOrders(t, n, k, WithDurability(wal.Local, 0))
	writeScript(t, e1)
	want := shardedProbes(t, e1)
	log := e1.Log()
	log.Crash()

	e2 := Open(WithLog(log), WithDurability(wal.Local, 0))
	loadOrders(t, e2, n)
	if _, err := e2.ShardTable("orders", "custkey", k); err != nil {
		t.Fatal(err)
	}
	if err := e2.Seal("orders"); err != nil {
		t.Fatal(err)
	}
	applied, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("recovery applied no records")
	}
	if got := shardedProbes(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered sharded relations diverged")
	}
	if again, err := e2.Recover(); err != nil || again != 0 {
		t.Fatalf("second replay applied %d records (err %v), want 0", again, err)
	}

	// The replica's sequence counter recovered from the stored sequences:
	// fresh DML on survivor and replica stays equivalent.
	post := "INSERT INTO orders VALUES (800009, -5, 'ASIA', 55.0, 15004)"
	execStmt(t, e1, post, time.Second)
	execStmt(t, e2, post, time.Second)
	q := "SELECT id, custkey, region, amount FROM orders WHERE custkey = -5"
	r1, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.Rel, r1.Rel) {
		t.Fatal("post-recovery DML diverged (sequence counter not recovered)")
	}
}

func TestShardedPlannerInfo(t *testing.T) {
	const n, k = 4000, 8
	e := shardedOrders(t, n, k)

	// Skewed key predicate: the plan prunes shards and sheds their bytes.
	res, err := e.Query("SELECT custkey, amount FROM orders WHERE custkey < 30")
	if err != nil {
		t.Fatal(err)
	}
	pi := res.PlanInfo
	if pi.ShardsScanned+pi.ShardsPruned != k {
		t.Fatalf("ShardsScanned %d + ShardsPruned %d != %d", pi.ShardsScanned, pi.ShardsPruned, k)
	}
	if pi.ShardsPruned == 0 {
		t.Fatal("skewed predicate pruned nothing")
	}
	full, err := e.Query("SELECT custkey, amount FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if full.PlanInfo.ShardsPruned != 0 || full.PlanInfo.ShardsScanned != k {
		t.Fatalf("unpredicated scan pruned %d shards", full.PlanInfo.ShardsPruned)
	}
	if res.PlanInfo.Est.Work.BytesReadDRAM >= full.PlanInfo.Est.Work.BytesReadDRAM {
		t.Fatal("pruned plan estimate did not shed bytes")
	}

	// Integer group key over a sharded scan: fused per shard.
	agg, err := e.Query("SELECT custkey, SUM(day) AS d FROM orders GROUP BY custkey")
	if err != nil {
		t.Fatal(err)
	}
	if !agg.PlanInfo.FusedAgg {
		t.Fatal("sharded int-group aggregation not credited as fused")
	}
}

// TestShardedJoinMatchesFlat: the one join answers a join of two tables
// cut independently on their join keys — their cuts differ, so a key's
// shard index on one side says nothing about the other — with the flat
// engine's relations, for a projection and for a GROUP BY over the join.
// It holds again after DML and a rebalance re-cut the orders shards.
func TestShardedJoinMatchesFlat(t *testing.T) {
	const n, k = 4000, 4
	loadCust := func(e *Engine) {
		tab, err := e.CreateTable("cust", colstore.Schema{
			{Name: "ckey", Type: colstore.Int64},
			{Name: "tier", Type: colstore.Int64},
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int64, 610)
		tiers := make([]int64, 610)
		for i := range keys {
			keys[i] = int64(i - 10) // covers writeScript's custkey -5
			tiers[i] = int64(i % 5)
		}
		if err := tab.Writer().Int64("ckey", keys...).Close(); err != nil {
			t.Fatal(err)
		}
		if err := tab.Writer().Int64("tier", tiers...).Close(); err != nil {
			t.Fatal(err)
		}
	}
	flat := Open(WithDurability(wal.Local, 0))
	loadOrders(t, flat, n)
	loadCust(flat)
	if err := flat.Seal("cust"); err != nil {
		t.Fatal(err)
	}

	e := shardedOrders(t, n, k, WithDurability(wal.Local, 0))
	loadCust(e)
	if _, err := e.ShardTable("cust", "ckey", k); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal("cust"); err != nil {
		t.Fatal(err)
	}

	check := func(when string) {
		t.Helper()
		for _, q := range []string{
			"SELECT id, custkey, tier FROM orders JOIN cust ON orders.custkey = cust.ckey WHERE amount > 100.0",
			"SELECT tier, COUNT(*) AS n, SUM(day) AS d FROM orders JOIN cust ON custkey = ckey GROUP BY tier",
		} {
			fr, err := flat.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(sr.PlanInfo.Joins) != 1 {
				t.Fatalf("%s: %d joins planned, want 1", when, len(sr.PlanInfo.Joins))
			}
			if fr.Rel.N == 0 || !sr.Rel.Equal(fr.Rel) {
				t.Fatalf("%s: sharded join diverged from flat at %q (flat N=%d, sharded N=%d)", when, q, fr.Rel.N, sr.Rel.N)
			}
		}
	}
	check("sealed")

	writeScript(t, flat)
	writeScript(t, e)
	orders, err := e.Catalog().Lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	cutsBefore := orders.Cuts()
	loop := e.NewLoop(SchedulerConfig{Budget: 1})
	rt := loop.OfferRebalance(0, "orders")
	loop.React()
	loop.RunToIdle()
	if rt.Err != nil || !rt.Done() {
		t.Fatalf("rebalance did not complete: done=%v err=%v", rt.Done(), rt.Err)
	}
	if reflect.DeepEqual(orders.Cuts(), cutsBefore) {
		t.Fatal("rebalance left the orders cuts unchanged: the re-cut arm is vacuous")
	}
	check("rebalanced")
}

// TestOfferRebalanceDefersThenRaces mirrors E23's merge discipline for
// the shard rebalance: offered FIRST at t=0 it still finishes after the
// foreground query admitted at the same instant, then races to idle.
func TestOfferRebalanceDefersThenRaces(t *testing.T) {
	const n, k = 4000, 4
	e := shardedOrders(t, n, k, WithDurability(wal.Local, 0))
	writeScript(t, e)
	want := shardedProbes(t, e)

	loop := e.NewLoop(SchedulerConfig{Budget: 1, Arbitrate: true})
	rt := loop.OfferRebalance(0, "orders")
	if rt.Rejected {
		t.Fatalf("rebalance rejected: %v", rt.Err)
	}
	q, err := sql.Parse("SELECT COUNT(*) FROM orders WHERE custkey = 3")
	if err != nil {
		t.Fatal(err)
	}
	fg := loop.Offer(0, q, opt.MinEnergy)
	if fg.Rejected {
		t.Fatal("foreground probe rejected")
	}
	loop.React()
	loop.RunToIdle()
	if rt.Err != nil || fg.Err != nil {
		t.Fatalf("loop errors: rebalance=%v fg=%v", rt.Err, fg.Err)
	}
	if !rt.Done() || !fg.Done() {
		t.Fatal("loop left work unfinished")
	}
	if rt.Finish < fg.Finish {
		t.Fatalf("background rebalance finished at %v before foreground at %v", rt.Finish, fg.Finish)
	}
	if rt.Rel == nil || rt.Rel.N != 1 || rt.Energy.Total() <= 0 {
		t.Fatalf("rebalance ticket lacks receipt or bill: rel=%v energy=%v", rt.Rel, rt.Energy)
	}
	if rt.PlanInfo == nil || rt.PlanInfo.Est.Energy <= 0 {
		t.Fatal("rebalance was not priced by the planner")
	}
	if rt.Objective != opt.MinEnergy {
		t.Fatalf("rebalance objective %v, want min-energy", rt.Objective)
	}

	st, err := e.Catalog().Lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.Shards() {
		if sh.DeltaRows() != 0 || !sh.Sealed() {
			t.Fatalf("shard %d not compacted after rebalance (delta=%d sealed=%v)", i, sh.DeltaRows(), sh.Sealed())
		}
	}
	if got := shardedProbes(t, e); !reflect.DeepEqual(got, want) {
		t.Fatal("rebalance changed query results")
	}

	// Alone on an empty queue it races straight to idle.
	rt2 := loop.OfferRebalance(loop.Now(), "orders")
	if rt2.Rejected {
		t.Fatalf("idle rebalance rejected: %v", rt2.Err)
	}
	loop.React()
	loop.RunToIdle()
	if !rt2.Done() || rt2.Err != nil {
		t.Fatalf("idle rebalance did not complete: done=%v err=%v", rt2.Done(), rt2.Err)
	}
}
