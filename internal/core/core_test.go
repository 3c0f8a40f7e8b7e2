package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/vec"
	"repro/internal/workload"
)

// loadOrders creates and loads the standard orders table on an engine.
func loadOrders(t testing.TB, e *Engine, n int) {
	t.Helper()
	o := workload.GenOrders(42, n, 500, 1.1)
	tab, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	regions := make([]string, n)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(tab.Writer().Int64("id", o.OrderID...).Close())
	check(tab.Writer().Int64("custkey", o.CustKey...).Close())
	check(tab.Writer().String("region", regions...).Close())
	check(tab.Writer().Float64("amount", o.Amount...).Close())
	check(tab.Writer().Int64("day", o.OrderDay...).Close())
	check(e.Seal("orders"))
}

func TestEndToEndSQL(t *testing.T) {
	e := Open()
	loadOrders(t, e, 5000)
	res, err := e.Query(`SELECT region, SUM(amount) AS rev, COUNT(*) AS n
		FROM orders WHERE amount > 100 GROUP BY region ORDER BY rev DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.N == 0 || res.Rel.N > len(workload.RegionNames) {
		t.Fatalf("groups = %d", res.Rel.N)
	}
	rev, err := res.Rel.Col("rev")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < res.Rel.N; i++ {
		if rev.F[i] > rev.F[i-1] {
			t.Fatal("ORDER BY rev DESC violated")
		}
	}
	if res.Joules() <= 0 {
		t.Error("query must report energy")
	}
	if res.Work == (energy.Counters{}) {
		t.Error("query must report work counters")
	}
}

func TestHybridLanguageEquivalence(t *testing.T) {
	// E14: SQL text and procedural builder must yield the same logical
	// query, the same plan, and the same rows.
	e := Open()
	loadOrders(t, e, 3000)
	sqlQ := `SELECT region, SUM(amount) AS rev FROM orders WHERE custkey < 50 GROUP BY region ORDER BY rev DESC`
	resSQL, err := e.Query(sqlQ)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := e.From("orders").
		Where("custkey", vec.LT, expr.IntVal(50)).
		Select("region").
		Agg(expr.AggSum, "amount", "rev").
		GroupBy("region").
		OrderBy("rev", true).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if resSQL.PlanInfo.Explain != resB.PlanInfo.Explain {
		t.Fatalf("plans differ:\nSQL:\n%s\nbuilder:\n%s", resSQL.PlanInfo.Explain, resB.PlanInfo.Explain)
	}
	if resSQL.Rel.N != resB.Rel.N {
		t.Fatalf("row counts differ: %d vs %d", resSQL.Rel.N, resB.Rel.N)
	}
	for r := 0; r < resSQL.Rel.N; r++ {
		if !reflect.DeepEqual(resSQL.Rel.Row(r), resB.Rel.Row(r)) {
			t.Fatalf("row %d differs", r)
		}
	}
}

// TestObjectiveSwitching: the scheduling objective is chosen per
// submission, not per engine.  One loop serves the same statement under
// each objective; every result reports the objective it was scheduled
// under, and the rows do not depend on it.
func TestObjectiveSwitching(t *testing.T) {
	e := Open()
	loadOrders(t, e, 2000)
	q, err := sql.Parse("SELECT region, SUM(amount) AS rev FROM orders GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	objs := []opt.Objective{opt.MinEnergy, opt.MinTime, opt.MinEDP}
	subs := make([]Submission, len(objs))
	for i, o := range objs {
		subs[i] = Submission{Arrival: time.Duration(i) * time.Second, Q: q, Objective: o}
	}
	rep := e.NewLoop(SchedulerConfig{Budget: 4, Arbitrate: true}).Replay(subs)
	if len(rep.Results) != len(objs) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(objs))
	}
	for i, r := range rep.Results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Objective != objs[i] {
			t.Errorf("submission %d scheduled under %v, want %v", i, r.Objective, objs[i])
		}
		if !reflect.DeepEqual(r.Rel, rep.Results[0].Rel) {
			t.Errorf("submission %d: rows differ under %v", i, objs[i])
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := Open()
	loadOrders(t, e, 100)
	if _, err := e.CreateTable("orders", nil); err == nil {
		t.Error("duplicate table must error")
	}
	if _, err := e.Query("SELEC broken"); err == nil {
		t.Error("bad SQL must error")
	}
	if _, err := e.Query("SELECT ghost FROM orders"); err == nil {
		t.Error("unknown column must error")
	}
	if err := e.Seal("ghost"); err == nil {
		t.Error("sealing unknown table must error")
	}
}

func TestFormat(t *testing.T) {
	e := Open()
	loadOrders(t, e, 50)
	res, err := e.Query("SELECT id, amount FROM orders LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	out := Format(res.Rel)
	if !strings.Contains(out, "id") || !strings.Contains(out, "amount") {
		t.Fatalf("format output missing headers:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("expected header+rule+2 rows:\n%s", out)
	}
	if Format(nil) != "" {
		t.Error("nil relation formats empty")
	}
}
