package dist_test

import (
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/experiments/dist"
	"repro/internal/workload"
)

// TestWireBytesPricesReferencedValues: a VARCHAR column's raw wire price
// is its rows' length-prefixed values, whatever dictionary they index — a
// one-row coded column over a 100K-name dictionary ships one name, not
// the dictionary — and a scan's coded output prices as the strings it
// holds.
func TestWireBytesPricesReferencedValues(t *testing.T) {
	names := make([]string, 100_000)
	for i := range names {
		names[i] = fmt.Sprintf("customer-%06d", i)
	}
	coded := exec.Col{Name: "name", Type: colstore.String, Dict: names, I: []int64{31_337}}
	plain := exec.StringCol("name", []string{names[31_337]})
	if got, want := dist.WireBytes(&coded), dist.WireBytes(&plain); got != want || want != uint64(len(names[31_337]))+2 {
		t.Fatalf("coded column prices %d wire bytes, the plain string %d", got, want)
	}

	o := workload.GenOrders(42, 3000, 100, 1.1)
	regions := make([]string, len(o.Region))
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	tab := colstore.NewTable("orders", colstore.Schema{{Name: "region", Type: colstore.String}})
	if err := tab.Writer().String("region", regions...).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Merge(0); err != nil {
		t.Fatal(err)
	}
	rel, err := (&exec.Scan{Source: tab, Select: []string{"region"}}).Run(exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < rel.N; i++ {
		want += uint64(len(rel.Row(i)[0].(string))) + 2
	}
	if got := dist.WireBytes(&rel.Cols[0]); got != want {
		t.Fatalf("scanned column prices %d wire bytes, its rows' strings %d", got, want)
	}
}
