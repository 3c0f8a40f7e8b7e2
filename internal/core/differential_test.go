package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/vec"
	"repro/internal/workload"
)

// TestDifferentialRandomQueries is a differential tester: random
// single-table queries run through the whole engine (parser-equivalent
// logical form -> optimizer -> executor) and through a trivial row-wise
// reference evaluator; results must agree exactly.  This catches
// integration bugs no unit test targets (predicate pushdown, zone-map
// pruning, packed-scan edge cases, aggregation, coercion).  It runs over
// {flat, k=4 shards} x {30 000, 150 000 rows} — a single-morsel, a
// multi-morsel, and two multi-shard shapes of the one scan — so every
// shape is checked against something other than the engine.
func TestDifferentialRandomQueries(t *testing.T) {
	for _, rows := range []int{30_000, 150_000} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("rows=%d/shards=%d", rows, shards), func(t *testing.T) {
				differentialRandomQueries(t, rows, shards)
			})
		}
	}
}

// differentialRandomQueries runs the random trials over one layout;
// shards == 0 keeps the table flat (and indexes id), otherwise it is cut
// into that many value-range shards on custkey.
func differentialRandomQueries(t *testing.T, rows, shards int) {
	e := Open()
	loadOrders(t, e, rows)
	// The flat table stays the reference's row source after sharding.
	tab, err := e.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		if _, err := e.ShardTable("orders", "custkey", shards); err != nil {
			t.Fatal(err)
		}
	} else if err := e.CreateIndex("orders", "id", "btree"); err != nil {
		// Also exercise the index path for id predicates.
		t.Fatal(err)
	}
	id, _ := tab.IntCol("id")
	ck, _ := tab.IntCol("custkey")
	rg, _ := tab.StrCol("region")
	am, _ := tab.FloatCol("amount")

	rng := workload.NewRNG(2026)
	ops := []vec.CmpOp{vec.LT, vec.LE, vec.GT, vec.GE, vec.EQ, vec.NE}

	for trial := 0; trial < 120; trial++ {
		// Random conjunction of 0..3 predicates.
		var preds []expr.Pred
		for k := rng.Intn(4); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				preds = append(preds, expr.Pred{
					Col: "id", Op: ops[rng.Intn(len(ops))],
					Val: expr.IntVal(int64(rng.Intn(rows + 100))),
				})
			case 1:
				preds = append(preds, expr.Pred{
					Col: "custkey", Op: ops[rng.Intn(len(ops))],
					Val: expr.IntVal(int64(rng.Intn(520))),
				})
			default:
				preds = append(preds, expr.Pred{
					Col: "region", Op: vec.EQ,
					Val: expr.StrVal(workload.RegionNames[rng.Intn(len(workload.RegionNames))]),
				})
			}
		}
		match := func(row int) bool {
			for _, p := range preds {
				var ok bool
				switch p.Col {
				case "id":
					ok = cmpI(p.Op, id.Get(row), p.Val.I)
				case "custkey":
					ok = cmpI(p.Op, ck.Get(row), p.Val.I)
				case "region":
					ok = rg.Get(row) == p.Val.S
				}
				if !ok {
					return false
				}
			}
			return true
		}

		switch trial % 3 {
		case 0:
			// Grouped aggregation: region -> (count, sum(amount)).
			q := &opt.Query{
				From:  "orders",
				Preds: preds,
				Select: []opt.SelectItem{
					{Col: "region"},
					{Agg: expr.AggCount, As: "n"},
					{Agg: expr.AggSum, Col: "amount", As: "s"},
				},
				GroupBy: []string{"region"},
			}
			res, err := e.Run(q)
			if err != nil {
				t.Fatalf("trial %d: %v (preds %v)", trial, err, preds)
			}
			wantN := map[string]int64{}
			wantS := map[string]float64{}
			for row := 0; row < rows; row++ {
				if match(row) {
					g := rg.Get(row)
					wantN[g]++
					wantS[g] += am.Get(row)
				}
			}
			if res.Rel.N != len(wantN) {
				t.Fatalf("trial %d: %d groups, want %d (preds %v)", trial, res.Rel.N, len(wantN), preds)
			}
			gc, _ := res.Rel.Col("region")
			nc, _ := res.Rel.Col("n")
			sc, _ := res.Rel.Col("s")
			for i := 0; i < res.Rel.N; i++ {
				g := gc.S[i]
				if nc.I[i] != wantN[g] {
					t.Fatalf("trial %d group %s: count %d want %d (preds %v)", trial, g, nc.I[i], wantN[g], preds)
				}
				if math.Abs(sc.F[i]-wantS[g]) > 1e-6*math.Max(1, math.Abs(wantS[g])) {
					t.Fatalf("trial %d group %s: sum %g want %g (preds %v)", trial, g, sc.F[i], wantS[g], preds)
				}
			}
		case 1:
			// Integer grouped aggregation (the fused fold on every layout):
			// custkey -> (count, sum(id)), groups in first-appearance order.
			q := &opt.Query{
				From:  "orders",
				Preds: preds,
				Select: []opt.SelectItem{
					{Col: "custkey"},
					{Agg: expr.AggCount, As: "n"},
					{Agg: expr.AggSum, Col: "id", As: "s"},
				},
				GroupBy: []string{"custkey"},
			}
			res, err := e.Run(q)
			if err != nil {
				t.Fatalf("trial %d: %v (preds %v)", trial, err, preds)
			}
			var order []int64
			wantN := map[int64]int64{}
			wantS := map[int64]int64{}
			for row := 0; row < rows; row++ {
				if match(row) {
					g := ck.Get(row)
					if wantN[g] == 0 {
						order = append(order, g)
					}
					wantN[g]++
					wantS[g] += id.Get(row)
				}
			}
			if res.Rel.N != len(order) {
				t.Fatalf("trial %d: %d groups, want %d (preds %v)", trial, res.Rel.N, len(order), preds)
			}
			gc, _ := res.Rel.Col("custkey")
			nc, _ := res.Rel.Col("n")
			sc, _ := res.Rel.Col("s")
			for i, g := range order {
				if gc.I[i] != g || nc.I[i] != wantN[g] || sc.I[i] != wantS[g] {
					t.Fatalf("trial %d group %d: got (%d, %d, %d) want (%d, %d, %d) (preds %v)",
						trial, i, gc.I[i], nc.I[i], sc.I[i], g, wantN[g], wantS[g], preds)
				}
			}
		default:
			// Row selection: the ids must match exactly, in row order.
			q := &opt.Query{From: "orders", Preds: preds, Select: []opt.SelectItem{{Col: "id"}}}
			res, err := e.Run(q)
			if err != nil {
				t.Fatalf("trial %d: %v (preds %v)", trial, err, preds)
			}
			var want []int64
			for row := 0; row < rows; row++ {
				if match(row) {
					want = append(want, id.Get(row))
				}
			}
			c, _ := res.Rel.Col("id")
			if !slices.Equal(c.I, want) {
				t.Fatalf("trial %d: got %d rows, want %d, or order differs (preds %v)", trial, res.Rel.N, len(want), preds)
			}
		}
	}
}

func cmpI(op vec.CmpOp, a, b int64) bool {
	switch op {
	case vec.LT:
		return a < b
	case vec.LE:
		return a <= b
	case vec.GT:
		return a > b
	case vec.GE:
		return a >= b
	case vec.EQ:
		return a == b
	case vec.NE:
		return a != b
	}
	return false
}
