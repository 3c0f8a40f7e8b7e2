package main

import (
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// Indexes of two workload.RegionNames.
const (
	asia   = 2
	europe = 3
)

// tinyDataset is six orders over three customers, small enough to work
// the answers out by hand.
func tinyDataset() *dataset {
	return &dataset{
		orders: &workload.Orders{
			OrderID:  []int64{1, 2, 3, 4, 5, 6},
			Region:   []int64{asia, asia, europe, asia, europe, europe},
			CustKey:  []int64{0, 1, 0, 2, 1, 0},
			Amount:   []float64{10, 20, 30, 40, 50, 60},
			OrderDay: []int64{100, 100, 101, 102, 102, 103},
		},
		ckey:    []int64{0, 1, 2},
		segment: []string{"AUTOMOBILE", "BUILDING", "AUTOMOBILE"},
		tier:    []int64{0, 1, 0},
	}
}

func TestOracleEval(t *testing.T) {
	o := newOracle(tinyDataset())
	cases := []struct {
		name string
		q    querySpec
		want map[string]agg
	}{
		{"point", pointSpec(0), map[string]agg{"": {count: 3, sumF: 100}}},
		{"filter group int sum",
			querySpec{preds: []pred{{"day", "<=", 101}}, groupBy: "region", sumCol: "day"},
			map[string]agg{"ASIA": {count: 2, sumI: 200}, "EUROPE": {count: 1, sumI: 101}}},
		{"group by custkey float sum",
			querySpec{groupBy: "custkey", sumCol: "amount"},
			map[string]agg{"0": {count: 3, sumF: 100}, "1": {count: 2, sumF: 70}, "2": {count: 1, sumF: 40}}},
		{"join filtered on the dimension",
			querySpec{join: true, preds: []pred{{"tier", "=", 0}}, groupBy: "segment", sumCol: "day"},
			map[string]agg{"AUTOMOBILE": {count: 4, sumI: 100 + 101 + 102 + 103}}},
	}
	for _, c := range cases {
		got := o.eval(c.q)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d groups, want %d (%v)", c.name, len(got), len(c.want), got)
		}
		for k, w := range c.want {
			if got[k] != w {
				t.Errorf("%s: group %q = %+v, want %+v", c.name, k, got[k], w)
			}
		}
	}
}

func TestOracleReplaysWrites(t *testing.T) {
	d := tinyDataset()
	o := newOracle(d)
	steps := []struct {
		w    writeSpec
		want agg // of custkey 0 afterwards
	}{
		{writeSpec{kind: writeInsert, id: 7, custkey: 0, region: asia, amount: 5.5, day: 103}, agg{count: 4, sumF: 105.5}},
		{writeSpec{kind: writeUpdate, id: 3, amount: 1}, agg{count: 4, sumF: 76.5}},
		{writeSpec{kind: writeDelete, id: 6}, agg{count: 3, sumF: 16.5}},
		{writeSpec{kind: writeDelete, id: 7}, agg{count: 2, sumF: 11}},
	}
	for _, s := range steps {
		if err := o.apply(s.w); err != nil {
			t.Fatalf("%s: %v", s.w.sql(), err)
		}
		if got := o.eval(pointSpec(0))[""]; got != s.want {
			t.Errorf("after %s: %+v, want %+v", s.w.sql(), got, s.want)
		}
		if got := o.point(0)[""]; got != s.want {
			t.Errorf("after %s: ledger %+v, want %+v", s.w.sql(), got, s.want)
		}
	}
	if err := o.apply(writeSpec{kind: writeDelete, id: 6}); err == nil {
		t.Error("deleting a deleted row was accepted")
	}
	if err := o.apply(writeSpec{kind: writeInsert, id: 2, custkey: 1}); err == nil {
		t.Error("inserting an existing id was accepted")
	}
	// The oracle must not have written through to the dataset it shares
	// backing arrays with: a second fixture is loaded from it.
	if d.orders.Amount[2] != 30 || len(d.orders.OrderID) != 6 {
		t.Errorf("oracle writes leaked into the dataset: %v", d.orders)
	}
}

func TestCheckRows(t *testing.T) {
	q := querySpec{groupBy: "region", sumCol: "amount"}
	want := map[string]agg{"ASIA": {count: 2, sumF: 1e9}, "EUROPE": {count: 1, sumF: 0.5}}
	cases := []struct {
		name string
		rows string
		ok   bool
	}{
		{"exact", `[["ASIA",2,1000000000],["EUROPE",1,0.5]]`, true},
		{"any order", `[["EUROPE",1,0.5],["ASIA",2,1e9]]`, true},
		{"float within 1e-9 relative", `[["ASIA",2,1000000000.5],["EUROPE",1,0.5]]`, true},
		{"float outside tolerance", `[["ASIA",2,1000000002],["EUROPE",1,0.5]]`, false},
		{"count off by one", `[["ASIA",3,1e9],["EUROPE",1,0.5]]`, false},
		{"missing group", `[["ASIA",2,1e9]]`, false},
		{"extra group", `[["ASIA",2,1e9],["EUROPE",1,0.5],["AFRICA",1,1]]`, false},
		{"repeated group", `[["ASIA",2,1e9],["ASIA",2,1e9]]`, false},
		{"short row", `[["ASIA",2],["EUROPE",1,0.5]]`, false},
	}
	for _, c := range cases {
		err := checkRows(json.RawMessage(c.rows), q, want)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
	// Integer sums and integer group keys compare exactly.
	qi := querySpec{groupBy: "custkey", sumCol: "day"}
	wi := map[string]agg{"7": {count: 1, sumI: 15000}}
	if err := checkRows(json.RawMessage(`[[7,1,15000]]`), qi, wi); err != nil {
		t.Errorf("integer row rejected: %v", err)
	}
	if err := checkRows(json.RawMessage(`[[7,1,15001]]`), qi, wi); err == nil {
		t.Error("integer sum off by one accepted")
	}
}
