package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/opt"
	"repro/internal/workload"
)

// TestDMLKeepsCatalogStatsFresh: after every statement of a seeded
// INSERT/UPDATE/DELETE/merge script, the statistics the engine keeps —
// extended over appended rows, untouched by a DELETE, re-derived after a
// merge — equal the ones a fresh catalog computes from the table.  The
// table starts just under 8 192 rows, so the script moves the sample
// stride n/4096 across a boundary and, with rebuild merges, back.
func TestDMLKeepsCatalogStatsFresh(t *testing.T) {
	e, err := OrdersEngine(8180)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	strides := map[int]bool{}
	check := func(what string) {
		t.Helper()
		got, err := e.Catalog().Stats("orders")
		if err != nil {
			t.Fatal(err)
		}
		fresh := opt.NewCatalog()
		fresh.Add(tab)
		want, _ := fresh.Stats("orders")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: catalog statistics\n got %+v\nwant %+v", what, got, want)
		}
		strides[tab.Rows()/4096] = true
	}
	rng := workload.NewRNG(34)
	regions := append([]string{"ATLANTIS"}, workload.RegionNames...)
	nextID := 9_000_000
	at := time.Duration(0)
	for i := 0; i < 120; i++ {
		var stmt string
		switch r := rng.Intn(20); {
		case r < 10:
			stmt = "INSERT INTO orders VALUES "
			for k := 0; k <= rng.Intn(4); k++ {
				if k > 0 {
					stmt += ", "
				}
				nextID++
				stmt += fmt.Sprintf("(%d, %d, '%s', %d.5, %d)", nextID, rng.Intn(200)-50, regions[rng.Intn(len(regions))], rng.Intn(100), 15000+rng.Intn(300))
			}
		case r < 14:
			lo := 1 + rng.Intn(8180)
			stmt = fmt.Sprintf("UPDATE orders SET custkey = %d WHERE id >= %d AND id < %d", rng.Intn(1000)-500, lo, lo+rng.Intn(6))
		case r < 18:
			lo := 1 + rng.Intn(8180)
			stmt = fmt.Sprintf("DELETE FROM orders WHERE id >= %d AND id < %d", lo, lo+rng.Intn(8))
		default:
			l := e.NewLoop(SchedulerConfig{Budget: 1, Arbitrate: true})
			mt := l.OfferMerge(at, "orders")
			l.React()
			l.RunToIdle()
			if !mt.Done() || mt.Err != nil {
				t.Fatalf("merge %d: done=%v err=%v", i, mt.Done(), mt.Err)
			}
			check(fmt.Sprintf("merge %d", i))
			continue
		}
		at += time.Millisecond
		execStmt(t, e, stmt, at)
		check(stmt)
	}
	if len(strides) < 2 {
		t.Fatalf("the script kept the sample stride at %v", strides)
	}
}
