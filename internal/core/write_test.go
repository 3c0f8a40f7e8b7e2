package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/wal"
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

// TestEntryPointsRunTogether: INSERT statements and Engine.Seal on one
// goroutine while another loops a query, each on a loop of its own as
// Engine.Run does.  Seal is a merge and holds the data latch exclusively,
// as ExecDML does, and the catalog's maps are read by planning while a
// write or a merge re-states them; under -race this is the check.  Every
// query must answer, and answer at its snapshot: a read takes it at
// admission and the latch only at dispatch, so a Seal between the two
// must leave it the rows committed at or below it, no more.
func TestEntryPointsRunTogether(t *testing.T) {
	e, err := OrdersEngine(20000)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Parse("SELECT COUNT(*) FROM orders WHERE custkey = -7")
	if err != nil {
		t.Fatal(err)
	}
	type read struct{ snap, count int64 }
	var reads []read
	done := make(chan struct{})
	queryErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				queryErr <- nil
				return
			default:
			}
			l := e.NewLoop(SchedulerConfig{Budget: 2, Arbitrate: true})
			tk := l.Offer(0, q, opt.MinTime)
			l.React()
			l.RunToIdle()
			if tk.Err != nil {
				queryErr <- tk.Err
				return
			}
			// A global COUNT(*) over no matching row is no row at all
			// (exec.HashAgg), which is what a read before the first
			// INSERT commits sees: it counts 0.
			count := int64(0)
			if tk.Rel.N > 0 {
				count = tk.Rel.Cols[0].I[0]
			}
			reads = append(reads, read{tk.SnapTS, count})
		}
	}()
	var commits []int64 // each INSERT's commit timestamp
	at := time.Duration(0)
	for round := 0; round < 30; round++ {
		for i := 0; i < 20; i++ {
			at += time.Millisecond
			res := execStmt(t, e, fmt.Sprintf("INSERT INTO orders VALUES (%d, -7, 'ASIA', 1.5, 15001)", 1_000_000+20*round+i), at)
			commits = append(commits, res.TS)
		}
		if err := e.Seal("orders"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-queryErr; err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		want := int64(0)
		for _, ts := range commits {
			if ts <= r.snap {
				want++
			}
		}
		if r.count != want {
			t.Fatalf("a read at snapshot %d counted %d rows, want %d", r.snap, r.count, want)
		}
	}
	res, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rel.Cols[0].I[0]; got != 600 {
		t.Fatalf("%s = %d, want 600", q, got)
	}
}

// TestSealKeepsAdmittedSnapshot: a read admitted before a DELETE, an
// INSERT and Engine.Seal, and dispatched after them, reads at its
// snapshot — Seal merges only up to it — and once the read has settled
// a second Seal merges everything.
func TestSealKeepsAdmittedSnapshot(t *testing.T) {
	e, err := OrdersEngine(4000)
	if err != nil {
		t.Fatal(err)
	}
	execStmt(t, e, "INSERT INTO orders VALUES (900001, -7, 'ASIA', 1.5, 15001)", time.Millisecond)
	execStmt(t, e, "INSERT INTO orders VALUES (900002, -7, 'ASIA', 2.5, 15001)", 2*time.Millisecond)
	q, err := sql.Parse("SELECT id, amount FROM orders WHERE custkey = -7 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	l := e.NewLoop(SchedulerConfig{Budget: 2, Arbitrate: true})
	tk := l.Offer(0, q, opt.MinTime)
	execStmt(t, e, "DELETE FROM orders WHERE id = 900001", 3*time.Millisecond)
	execStmt(t, e, "INSERT INTO orders VALUES (900003, -7, 'ASIA', 3.5, 15001)", 4*time.Millisecond)
	if err := e.Seal("orders"); err != nil {
		t.Fatal(err)
	}
	tab, err := e.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if !tab.HasTombstones() || tab.RowsAsOf(tk.SnapTS) == tab.Rows() {
		t.Fatalf("Seal under a read at snapshot %d merged past it: tombstones %v, %d of %d rows visible",
			tk.SnapTS, tab.HasTombstones(), tab.RowsAsOf(tk.SnapTS), tab.Rows())
	}
	l.React()
	l.RunToIdle()
	if tk.Err != nil {
		t.Fatal(tk.Err)
	}
	if got, want := Format(tk.Rel), Format(before.Rel); got != want {
		t.Fatalf("read at snapshot %d:\n%s\nwant\n%s", tk.SnapTS, got, want)
	}
	if err := e.Seal("orders"); err != nil {
		t.Fatal(err)
	}
	if tab.HasTombstones() || tab.DeltaRows() != 0 {
		t.Fatalf("Seal with no read in flight left %d delta rows, tombstones %v", tab.DeltaRows(), tab.HasTombstones())
	}
	after, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Rel.N; n != 2 {
		t.Fatalf("after the second Seal: %d rows, want 2:\n%s", n, Format(after.Rel))
	}
}

// twoBatchOrders opens an engine over log (nil: a fresh one) and loads
// 200 orders in two Writer batches, so the table's commit timestamps (1
// and 2) run ahead of the engine's clock; seal merges them.
func twoBatchOrders(t *testing.T, log *wal.Log, seal bool) *Engine {
	t.Helper()
	var opts []Option
	if log != nil {
		opts = append(opts, WithLog(log))
	}
	e := Open(opts...)
	tab, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64}, {Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String}, {Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		w := tab.Writer()
		for i := 0; i < 100; i++ {
			id := int64(100*b + i)
			w.Row(id, id%10, "ASIA", float64(id)/2, int64(15000+i))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		if err := e.Seal("orders"); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestCommitAfterMultiBatchLoad: after a load of two Writer batches,
// sealed or not, DML commits at or past the load's timestamps, every
// read sees the load and the writes, and the log replays into a replica
// rebuilt the same way.
func TestCommitAfterMultiBatchLoad(t *testing.T) {
	for _, seal := range []bool{true, false} {
		t.Run(fmt.Sprintf("seal=%v", seal), func(t *testing.T) {
			e := twoBatchOrders(t, nil, seal)
			execStmt(t, e, "INSERT INTO orders VALUES (900, -7, 'ASIA', 1.5, 15001)", time.Millisecond)
			execStmt(t, e, "DELETE FROM orders WHERE id = 3", 2*time.Millisecond)
			execStmt(t, e, "INSERT INTO orders VALUES (901, -7, 'ASIA', 2.5, 15001)", 3*time.Millisecond)
			const q = "SELECT COUNT(*), SUM(id) FROM orders"
			res := mustQuery(t, e, q)
			want := Format(res.Rel)
			if n := res.Rel.Cols[0].I[0]; n != 201 {
				t.Fatalf("%s counted %d rows, want 201", q, n)
			}
			if _, err := e.Txn().Sync(); err != nil {
				t.Fatal(err)
			}
			log := e.Log()
			log.Crash()
			r := twoBatchOrders(t, log, seal)
			if _, err := r.Recover(); err != nil {
				t.Fatal(err)
			}
			if got := Format(mustQuery(t, r, q).Rel); got != want {
				t.Fatalf("replica reads\n%s\nwant\n%s", got, want)
			}
			execStmt(t, r, "INSERT INTO orders VALUES (902, -7, 'ASIA', 3.5, 15001)", 4*time.Millisecond)
		})
	}
}

// mustQuery runs SQL on the engine or fails the test.
func mustQuery(t *testing.T, e *Engine, text string) *Result {
	t.Helper()
	res, err := e.Query(text)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
