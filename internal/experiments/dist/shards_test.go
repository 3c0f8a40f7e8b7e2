package dist_test

import (
	"reflect"
	"testing"

	"repro/internal/colstore"
	. "repro/internal/experiments/dist"
	"repro/internal/experiments/shard"
	"repro/internal/expr"
	"repro/internal/netsim"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Shard-granular placement tests use a BIGINT sum column: integer sums
// are exact, so the sharded pushdown must agree with the flat cluster
// bit for bit at every shard count (float partials re-associate — the
// same "fp-ordering luck" TestIntegerSum sidesteps).

func shardSchema() colstore.Schema {
	return colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "qty", Type: colstore.Int64},
	}
}

func shardQuery() AggQuery {
	return AggQuery{
		Preds:    []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(800)}},
		GroupBy:  "region",
		SumCol:   "qty",
		SumAlias: "units",
	}
}

func shardRows(rows int) ([]int64, []string, []int64) {
	o := workload.GenOrders(55, rows, 1000, 1.1)
	ck := make([]int64, rows)
	rg := make([]string, rows)
	qty := make([]int64, rows)
	for i := 0; i < rows; i++ {
		ck[i] = o.CustKey[i]
		rg[i] = workload.RegionNames[o.Region[i]]
		qty[i] = int64(i%97) + 1
	}
	return ck, rg, qty
}

// loadShardedKV cuts one flat sealed table into k value-range shards on
// custkey and places them across nodes.
func loadShardedKV(t *testing.T, k, nodes, rows int, link *netsim.Link) *ShardedCluster {
	t.Helper()
	tab := colstore.NewTable("orders", shardSchema())
	ck, rg, qty := shardRows(rows)
	if err := tab.Writer().
		Int64("custkey", ck...).
		String("region", rg...).
		Int64("qty", qty...).
		Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	st, err := shard.Cut(tab, "custkey", k)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	sc, err := PlaceShards(st, nodes, link)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// loadFlatKV builds the round-robin flat cluster over the same rows.
func loadFlatKV(t *testing.T, nodes, rows int, link *netsim.Link) *Cluster {
	t.Helper()
	c := NewCluster(nodes, shardSchema(), "orders", link)
	ck, rg, qty := shardRows(rows)
	for i := 0; i < rows; i++ {
		if err := c.Nodes[i%nodes].Table.Writer().Row(ck[i], rg[i], qty[i]).Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlaceShardsRoundRobin(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	sc := loadShardedKV(t, 8, 3, 2000, link)
	want := []int{0, 1, 2, 0, 1, 2, 0, 1}
	if !reflect.DeepEqual(sc.NodeOf, want) {
		t.Fatalf("NodeOf = %v, want %v", sc.NodeOf, want)
	}
	if _, err := PlaceShards(sc.Sharded, 0, link); err == nil {
		t.Fatal("nodes=0 must error")
	}
}

// TestShardedAggMatchesFlatCluster: shard-granular pushdown returns the
// byte-identical merged relation of the flat cluster's pushdown, at any
// shard count and node count.
func TestShardedAggMatchesFlatCluster(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20_000
	flat := loadFlatKV(t, 4, rows, link)
	q := shardQuery()
	want, _, err := flat.Run(q, Pushdown)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 16} {
		for _, nodes := range []int{1, 3} {
			sc := loadShardedKV(t, k, nodes, rows, link)
			got, rep, err := sc.RunAgg(q)
			if err != nil {
				t.Fatalf("k=%d nodes=%d: %v", k, nodes, err)
			}
			if got.N == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d nodes=%d: sharded agg diverged from flat pushdown", k, nodes)
			}
			if rep.ShardsScanned+rep.ShardsPruned != k {
				t.Fatalf("k=%d: scanned %d + pruned %d != %d", k, rep.ShardsScanned, rep.ShardsPruned, k)
			}
		}
	}
}

// TestShardPruningCutsWireAndEnergy: under a skewed key predicate, a
// finer shard cut prunes more of the table before it scans or ships —
// modeled energy drops monotonically with the shard count.
func TestShardPruningCutsWireAndEnergy(t *testing.T) {
	// Fast link so modeled energy is dominated by the surviving scans,
	// not link idle time; predicate on the cold tail of the zipf key
	// domain so finer cuts isolate it in ever-smaller shards.
	link, err := netsim.LinkByName("40Gbps")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20_000
	q := shardQuery()
	q.Preds = []expr.Pred{{Col: "custkey", Op: vec.GE, Val: expr.IntVal(990)}}
	var prev ShardReport
	var prevRel interface{}
	for i, k := range []int{1, 4, 16} {
		sc := loadShardedKV(t, k, 3, rows, link)
		rel, rep, err := sc.RunAgg(q)
		if err != nil {
			t.Fatal(err)
		}
		if rel.N == 0 {
			t.Fatal("degenerate predicate: empty result")
		}
		if prevRel == nil {
			prevRel = *rel
		} else if !reflect.DeepEqual(*rel, prevRel) {
			t.Fatalf("k=%d: result changed with shard count", k)
		}
		if i > 0 {
			if rep.ShardsPruned == 0 {
				t.Fatalf("k=%d: skewed predicate pruned nothing", k)
			}
			if rep.Energy >= prev.Energy {
				t.Fatalf("k=%d: finer shards did not cut energy: %v >= %v", k, rep.Energy, prev.Energy)
			}
			if rep.WireBytes > prev.WireBytes {
				t.Fatalf("k=%d: finer shards shipped more: %d > %d", k, rep.WireBytes, prev.WireBytes)
			}
		}
		prev = rep
	}
}

func TestAllShardsPruned(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	sc := loadShardedKV(t, 4, 2, 2000, link)
	q := shardQuery()
	q.Preds = []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(-1000)}}
	rel, rep, err := sc.RunAgg(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel.N != 0 {
		t.Fatalf("impossible predicate returned %d rows", rel.N)
	}
	if got := rel.ColNames(); !reflect.DeepEqual(got, []string{"region", "units"}) {
		t.Fatalf("empty result columns = %v", got)
	}
	if rep.ShardsPruned != 4 || rep.ShardsScanned != 0 || rep.WireBytes != 0 {
		t.Fatalf("report = %+v: want all pruned, nothing shipped", rep)
	}
}

func TestShardedAggBadQuery(t *testing.T) {
	link, err := netsim.LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	sc := loadShardedKV(t, 4, 2, 500, link)
	q := shardQuery()
	q.Preds = []expr.Pred{{Col: "nope", Op: vec.LT, Val: expr.IntVal(5)}}
	if _, _, err := sc.RunAgg(q); err == nil {
		t.Fatal("predicate on missing column must error")
	}
	q = shardQuery()
	q.Preds = []expr.Pred{{Col: "region", Op: vec.EQ, Val: expr.IntVal(5)}}
	if _, _, err := sc.RunAgg(q); err == nil {
		t.Fatal("type-mismatched predicate must error")
	}
}
