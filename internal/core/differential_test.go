package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/sql"
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
// shards == 0 keeps the table flat, otherwise it is cut into that many
// value-range shards on custkey.
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
			wantS := map[string][]float64{}
			for row := 0; row < rows; row++ {
				if match(row) {
					g := rg.Get(row)
					wantN[g]++
					wantS[g] = append(wantS[g], am.Get(row))
				}
			}
			if res.Rel.N != len(wantN) {
				t.Fatalf("trial %d: %d groups, want %d (preds %v)", trial, res.Rel.N, len(wantN), preds)
			}
			gc, _ := res.Rel.Col("region")
			nc, _ := res.Rel.Col("n")
			sc, _ := res.Rel.Col("s")
			for i := 0; i < res.Rel.N; i++ {
				g := gc.Str(i)
				if nc.I[i] != wantN[g] {
					t.Fatalf("trial %d group %s: count %d want %d (preds %v)", trial, g, nc.I[i], wantN[g], preds)
				}
				if want := exactSum(wantS[g]); sc.F[i] != want {
					t.Fatalf("trial %d group %s: sum %g want %g (preds %v)", trial, g, sc.F[i], want, preds)
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

// TestDifferentialRandomJoins is the joins' independent oracle: random
// two-table statements run through the whole engine and through a
// nested-loop reference over the generated Go slices — no hash table, no
// morsels, no dictionary, no code shared with exec.  Layouts cover both
// sides of a planner side swap (customers smaller and larger than
// orders), storage sealed, customers unsealed, and both tables unsealed
// (a string key then joins append-order dictionaries' codes, translated
// between the two), and a customers table with missing and duplicated
// keys; statements cover predicates on
// either side, GROUP BY a build string / a probe string / nothing, COUNT
// + SUM of an int of either side, both key types, and a plain row
// selection (the pair sink).  Group ORDER follows the probe side the
// planner picked, so grouped results — and the selection's rows —
// compare order-insensitively.
func TestDifferentialRandomJoins(t *testing.T) {
	seen := map[string]int{} // plan shapes the trials reached
	for _, nOrders := range []int{200, 2500, 12_000} {
		for _, nCust := range []int{30, 3000} {
			// sealed=true seals both tables, sealed=false only orders,
			// sealed=none neither.
			for _, l := range []struct{ sealed, layout string }{
				{"true", "sealed"}, {"false", "customers-unsealed"}, {"none", "unsealed"},
			} {
				t.Run(fmt.Sprintf("orders=%d/customers=%d/sealed=%s", nOrders, nCust, l.sealed), func(t *testing.T) {
					differentialRandomJoins(t, nOrders, nCust, l.layout, seen)
				})
			}
		}
	}
	for _, shape := range []string{"probe=orders", "probe=customers", "string", "string/unsealed", "bigint", "fold", "pairs"} {
		if seen[shape] == 0 {
			t.Errorf("no trial planned the %q shape: the matrix compares less than it claims (%v)", shape, seen)
		}
	}
}

func differentialRandomJoins(t *testing.T, nOrders, nCust int, layout string, seen map[string]int) {
	rng := workload.NewRNG(uint64(7*nOrders + nCust))
	segments := []string{"AUTO", "RETAIL", "WHOLESALE", "PUBLIC"}
	keyName := func(k int64) string { return fmt.Sprintf("c%05d", k) }

	// customers: ckeys drawn with replacement from a key space 25% wider
	// than the table, so some keys repeat and some never appear.
	type customer struct {
		ckey, tier    int64
		name, segment string
	}
	custs := make([]customer, nCust)
	for i := range custs {
		k := int64(rng.Intn(nCust + nCust/4 + 1))
		custs[i] = customer{ckey: k, tier: int64(rng.Intn(5)), name: keyName(k), segment: segments[rng.Intn(len(segments))]}
	}
	// orders reference the same key space: some orders dangle.
	type order struct {
		id, custkey, qty int64
		cname, region    string
	}
	ords := make([]order, nOrders)
	for i := range ords {
		k := int64(rng.Intn(nCust + nCust/4 + 1))
		ords[i] = order{id: int64(i), custkey: k, qty: int64(rng.Intn(50)), cname: keyName(k),
			region: workload.RegionNames[rng.Intn(len(workload.RegionNames))]}
	}

	e := Open()
	ot, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64}, {Name: "custkey", Type: colstore.Int64}, {Name: "qty", Type: colstore.Int64},
		{Name: "cname", Type: colstore.String}, {Name: "region", Type: colstore.String}})
	if err != nil {
		t.Fatal(err)
	}
	ow := ot.Writer()
	for _, o := range ords {
		ow.Row(o.id, o.custkey, o.qty, o.cname, o.region)
	}
	ct, err := e.CreateTable("customers", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64}, {Name: "tier", Type: colstore.Int64},
		{Name: "name", Type: colstore.String}, {Name: "segment", Type: colstore.String}})
	if err != nil {
		t.Fatal(err)
	}
	cw := ct.Writer()
	for _, c := range custs {
		cw.Row(c.ckey, c.tier, c.name, c.segment)
	}
	if err := errors.Join(ow.Close(), cw.Close()); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"orders", "customers"} {
		if layout == "sealed" || (layout == "customers-unsealed" && table == "orders") {
			err = e.Seal(table)
		} else {
			err = e.Catalog().Refresh(table)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	ops := []vec.CmpOp{vec.LT, vec.LE, vec.GT, vec.GE, vec.EQ, vec.NE}
	// note records which plan shape answered a trial.
	note := func(info *opt.PlanInfo) {
		ji := info.Joins[0]
		seen["probe="+ji.Probe]++
		switch {
		case ji.LeftKey == "custkey" || ji.LeftKey == "ckey":
			seen["bigint"]++
		case layout == "unsealed":
			seen["string/unsealed"]++
		default:
			seen["string"]++
		}
		if ji.FusedAgg {
			seen["fold"]++
		} else {
			seen["pairs"]++
		}
	}
	for trial := 0; trial < 24; trial++ {
		// 0..2 predicates, on either side.
		var preds []expr.Pred
		for k := rng.Intn(3); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				preds = append(preds, expr.Pred{Col: "qty", Op: ops[rng.Intn(len(ops))], Val: expr.IntVal(int64(rng.Intn(50)))})
			case 1:
				preds = append(preds, expr.Pred{Col: "tier", Op: ops[rng.Intn(len(ops))], Val: expr.IntVal(int64(rng.Intn(5)))})
			default:
				preds = append(preds, expr.Pred{Col: "segment", Op: vec.EQ, Val: expr.StrVal(segments[rng.Intn(len(segments))])})
			}
		}
		keep := func(o *order, c *customer) bool {
			for _, p := range preds {
				switch p.Col {
				case "qty":
					if !cmpI(p.Op, o.qty, p.Val.I) {
						return false
					}
				case "tier":
					if !cmpI(p.Op, c.tier, p.Val.I) {
						return false
					}
				case "segment":
					if c.segment != p.Val.S {
						return false
					}
				}
			}
			return true
		}
		// The join key alternates between the BIGINT and the string pair.
		join := opt.JoinSpec{Table: "customers", LeftCol: "custkey", RightCol: "ckey"}
		if trial%2 == 1 {
			join = opt.JoinSpec{Table: "customers", LeftCol: "cname", RightCol: "name"}
		}
		// matches visits every joined pair, nested-loop.
		matches := func(visit func(o *order, c *customer)) {
			for i := range ords {
				for j := range custs {
					o, c := &ords[i], &custs[j]
					if o.custkey == c.ckey && keep(o, c) {
						visit(o, c)
					}
				}
			}
		}

		type agg struct{ n, s int64 }
		grouped := func(groupBy, sumCol string, group func(*order, *customer) string, val func(*order, *customer) int64) {
			q := &opt.Query{From: "orders", Joins: []opt.JoinSpec{join}, Preds: preds,
				Select: []opt.SelectItem{{Agg: expr.AggCount, As: "n"}, {Agg: expr.AggSum, Col: sumCol, As: "s"}}}
			if groupBy != "" {
				q.GroupBy = []string{groupBy}
				q.Select = append([]opt.SelectItem{{Col: groupBy}}, q.Select...)
			}
			res, err := e.Run(q)
			if err != nil {
				t.Fatalf("trial %d group by %q: %v (preds %v)", trial, groupBy, err, preds)
			}
			note(res.PlanInfo)
			want := map[string]agg{}
			matches(func(o *order, c *customer) {
				a := want[group(o, c)]
				want[group(o, c)] = agg{a.n + 1, a.s + val(o, c)}
			})
			// (A global aggregate over no rows is no row — the engine's
			// convention on every path, so the empty map is right.)
			if res.Rel.N != len(want) {
				t.Fatalf("trial %d group by %q: %d groups, want %d (preds %v)", trial, groupBy, res.Rel.N, len(want), preds)
			}
			nc, _ := res.Rel.Col("n")
			sc, _ := res.Rel.Col("s")
			for i := 0; i < res.Rel.N; i++ {
				g := ""
				if groupBy != "" {
					gc, _ := res.Rel.Col(groupBy)
					g = gc.Str(i)
				}
				if w, ok := want[g]; !ok || nc.I[i] != w.n || sc.I[i] != w.s {
					t.Fatalf("trial %d group %q=%q: got (%d, %d) want %+v present=%v (join %v, preds %v)",
						trial, groupBy, g, nc.I[i], sc.I[i], w, ok, join, preds)
				}
			}
		}
		switch trial % 4 {
		case 0: // GROUP BY a build string, SUM of a probe int
			grouped("segment", "qty", func(_ *order, c *customer) string { return c.segment },
				func(o *order, _ *customer) int64 { return o.qty })
		case 1: // GROUP BY a probe string, SUM of a build int
			grouped("region", "tier", func(o *order, _ *customer) string { return o.region },
				func(_ *order, c *customer) int64 { return c.tier })
		case 2: // no GROUP BY
			grouped("", "tier", func(*order, *customer) string { return "" },
				func(_ *order, c *customer) int64 { return c.tier })
		default: // row selection through the pair sink, as a multiset
			q := &opt.Query{From: "orders", Joins: []opt.JoinSpec{join}, Preds: preds,
				Select: []opt.SelectItem{{Col: "id"}, {Col: "tier"}, {Col: "segment"}}}
			res, err := e.Run(q)
			if err != nil {
				t.Fatalf("trial %d select: %v (preds %v)", trial, err, preds)
			}
			note(res.PlanInfo)
			var want, got []string
			matches(func(o *order, c *customer) { want = append(want, fmt.Sprint(o.id, c.tier, c.segment)) })
			ic, _ := res.Rel.Col("id")
			tc, _ := res.Rel.Col("tier")
			sc, _ := res.Rel.Col("segment")
			for i := 0; i < res.Rel.N; i++ {
				got = append(got, fmt.Sprint(ic.I[i], tc.I[i], sc.Str(i)))
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d select: %d rows, want %d, or rows differ (join %v, preds %v)", trial, len(got), len(want), join, preds)
			}
		}
	}
}

// exactSum is the reference DOUBLE sum: the exact math/big sum of xs
// (every amount is finite), rounded once to nearest even.
func exactSum(xs []float64) float64 {
	sum := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetFloat64(x))
	}
	f, _ := sum.Float64()
	return f + 0 // a zero sum is +0
}

// TestDifferentialRandomAggregates is the one aggregate's independent
// oracle: random GROUP BY statements run through the whole engine and
// through a row-at-a-time reference over Go structs — no table, no
// morsels, no dictionary, no code shared with exec.  GROUP BY draws one
// or two columns from {BIGINT, string, DOUBLE}; the aggregates draw from
// COUNT(*) and SUM/MIN/MAX/AVG over a DOUBLE and over BIGINT columns;
// layouts cover {flat, k=4 shards} × {sealed, live delta with tombstones}
// over two morsels of rows.  Groups compare in first-appearance order and
// every value exactly: a float sum is the exact sum rounded once
// (exactSum), which the engine's order-free sum is at every layout.
func TestDifferentialRandomAggregates(t *testing.T) {
	seen := map[string]int{} // statement shapes the trials reached
	for _, shards := range []int{0, 4} {
		for _, live := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/live=%v", shards, live), func(t *testing.T) {
				differentialRandomAggregates(t, shards, live, seen)
			})
		}
	}
	for _, shape := range []string{"key=custkey", "key=region", "key=amount", "keys=2",
		"SUM(amount)", "MIN(amount)", "MAX(amount)", "AVG(amount)", "SUM(id)", "MIN(day)", "MAX(id)", "AVG(day)"} {
		if seen[shape] == 0 {
			t.Errorf("no trial drew the %q shape: the matrix compares less than it claims (%v)", shape, seen)
		}
	}
}

func differentialRandomAggregates(t *testing.T, shards int, live bool, seen map[string]int) {
	const rows = 70_000
	type order struct {
		id, custkey int64
		region      string
		amount      float64
		day         int64
	}
	e := Open()
	loadOrders(t, e, rows)
	tab, err := e.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tab.IntCol("id")
	ck, _ := tab.IntCol("custkey")
	rg, _ := tab.StrCol("region")
	am, _ := tab.FloatCol("amount")
	dy, _ := tab.IntCol("day")
	ref := make([]order, rows)
	for r := range ref {
		ref[r] = order{id.Get(r), ck.Get(r), rg.Get(r), am.Get(r), dy.Get(r)}
	}
	if shards > 0 {
		if _, err := e.ShardTable("orders", "custkey", shards); err != nil {
			t.Fatal(err)
		}
	}
	if live {
		at := time.Millisecond
		exec := func(stmt string) {
			st, err := sql.ParseStmt(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.ExecDML(st.DML, at); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			at += time.Millisecond
		}
		for batch := 0; batch < 4; batch++ {
			var tuples []string
			for i := batch * 50; i < (batch+1)*50; i++ {
				o := order{int64(900_000 + i), int64(i*7) % 520, workload.RegionNames[i%len(workload.RegionNames)],
					float64(i)*1.25 + 0.5, int64(15_000 + i%50)}
				ref = append(ref, o)
				tuples = append(tuples, fmt.Sprintf("(%d, %d, '%s', %v, %d)", o.id, o.custkey, o.region, o.amount, o.day))
			}
			exec("INSERT INTO orders VALUES " + strings.Join(tuples, ", "))
		}
		drop := func(stmt string, doomed func(o order) bool) {
			exec(stmt)
			ref = slices.DeleteFunc(ref, doomed)
		}
		drop("DELETE FROM orders WHERE custkey = 3 AND amount > 500.0", func(o order) bool { return o.custkey == 3 && o.amount > 500 })
		for _, victim := range []int64{ref[0].id, ref[40_000].id, 900_007, 900_150} {
			drop(fmt.Sprintf("DELETE FROM orders WHERE id = %d", victim), func(o order) bool { return o.id == victim })
		}
	}

	rng := workload.NewRNG(uint64(99 + shards))
	groupCols := []string{"custkey", "day", "region", "amount"}
	aggPool := []opt.SelectItem{
		{Agg: expr.AggCount},
		{Agg: expr.AggSum, Col: "amount"}, {Agg: expr.AggMin, Col: "amount"},
		{Agg: expr.AggMax, Col: "amount"}, {Agg: expr.AggAvg, Col: "amount"},
		{Agg: expr.AggSum, Col: "id"}, {Agg: expr.AggMin, Col: "day"},
		{Agg: expr.AggMax, Col: "id"}, {Agg: expr.AggAvg, Col: "day"},
	}
	value := func(o order, col string) (i int64, f float64, isFloat bool) {
		switch col {
		case "id":
			return o.id, 0, false
		case "custkey":
			return o.custkey, 0, false
		case "day":
			return o.day, 0, false
		}
		return 0, o.amount, true
	}
	type groupKey struct {
		i [2]int64
		s [2]string
	}
	type acc struct {
		first  order
		n      int64
		isum   [3]int64
		fvals  [3][]float64 // the DOUBLE inputs, summed by exactSum
		lo, hi [3]float64   // extrema, integers widened (exact below 2^53)
	}
	for trial := 0; trial < 10; trial++ {
		var preds []expr.Pred
		switch rng.Intn(3) {
		case 1:
			preds = append(preds, expr.Pred{Col: "custkey", Op: vec.LT, Val: expr.IntVal(int64(rng.Intn(520)))})
		case 2:
			preds = append(preds, expr.Pred{Col: "region", Op: vec.EQ,
				Val: expr.StrVal(workload.RegionNames[rng.Intn(len(workload.RegionNames))])})
		}
		groupBy := []string{groupCols[rng.Intn(len(groupCols))]}
		if second := groupCols[rng.Intn(len(groupCols))]; rng.Intn(2) == 0 && second != groupBy[0] {
			groupBy = append(groupBy, second)
		}
		q := &opt.Query{From: "orders", Preds: preds, GroupBy: groupBy}
		for _, g := range groupBy {
			q.Select = append(q.Select, opt.SelectItem{Col: g})
		}
		var aggs []opt.SelectItem
		for k := 1 + rng.Intn(3); k > 0; k-- {
			a := aggPool[rng.Intn(len(aggPool))]
			a.As = fmt.Sprintf("a%d", len(aggs))
			aggs = append(aggs, a)
		}
		q.Select = append(q.Select, aggs...)
		seen[fmt.Sprintf("keys=%d", len(groupBy))]++
		for _, g := range groupBy {
			seen["key="+g]++
		}
		for _, a := range aggs {
			seen[fmt.Sprintf("%v(%s)", a.Agg, a.Col)]++
		}
		desc := fmt.Sprintf("trial %d: GROUP BY %v, %v WHERE %v", trial, groupBy, aggs, preds)
		res, err := e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}

		groups := map[groupKey]*acc{}
		var seq []*acc
		for _, o := range ref {
			if len(preds) > 0 {
				p := preds[0]
				if (p.Col == "custkey" && o.custkey >= p.Val.I) || (p.Col == "region" && o.region != p.Val.S) {
					continue
				}
			}
			var key groupKey
			for p, g := range groupBy {
				if g == "region" {
					key.s[p] = o.region
				} else {
					i, f, _ := value(o, g)
					key.i[p] = i + int64(math.Float64bits(f)) // one of the two is zero
				}
			}
			a := groups[key]
			if a == nil {
				a = &acc{first: o}
				groups[key] = a
				seq = append(seq, a)
			}
			a.n++
			for ai, s := range aggs {
				if s.Agg == expr.AggCount {
					continue
				}
				i, f, isFloat := value(o, s.Col)
				if !isFloat {
					f = float64(i)
				}
				a.isum[ai] += i
				a.fvals[ai] = append(a.fvals[ai], f)
				if a.n == 1 || f < a.lo[ai] {
					a.lo[ai] = f
				}
				if a.n == 1 || f > a.hi[ai] {
					a.hi[ai] = f
				}
			}
		}
		if res.Rel.N != len(seq) {
			t.Fatalf("%s: %d groups, want %d", desc, res.Rel.N, len(seq))
		}
		for gi, a := range seq {
			for ci, g := range groupBy {
				c := &res.Rel.Cols[ci]
				i, f, isFloat := value(a.first, g)
				var same bool
				switch {
				case g == "region":
					same = c.Str(gi) == a.first.region
				case isFloat:
					same = c.F[gi] == f
				default:
					same = c.I[gi] == i
				}
				if !same {
					t.Fatalf("%s: group %d: key column %s differs", desc, gi, g)
				}
			}
			for ai, s := range aggs {
				c := &res.Rel.Cols[len(groupBy)+ai]
				floatIn := s.Col == "amount"
				ok := true
				switch {
				case s.Agg == expr.AggCount:
					ok = c.I[gi] == a.n
				case s.Agg == expr.AggSum && floatIn:
					ok = c.F[gi] == exactSum(a.fvals[ai])
				case s.Agg == expr.AggSum:
					ok = c.I[gi] == a.isum[ai]
				case s.Agg == expr.AggAvg && floatIn:
					ok = c.F[gi] == exactSum(a.fvals[ai])/float64(a.n)
				case s.Agg == expr.AggAvg:
					ok = c.F[gi] == float64(a.isum[ai])/float64(a.n)
				case s.Agg == expr.AggMin && floatIn:
					ok = c.F[gi] == a.lo[ai]
				case s.Agg == expr.AggMin:
					ok = float64(c.I[gi]) == a.lo[ai]
				case floatIn:
					ok = c.F[gi] == a.hi[ai]
				default:
					ok = float64(c.I[gi]) == a.hi[ai]
				}
				if !ok {
					t.Fatalf("%s: group %d aggregate %d differs: %v", desc, gi, ai, res.Rel.Row(gi))
				}
			}
		}
	}
}
