package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/wal"
)

// These tests pin the crash-recovery contract of the write path: replay
// of the REDO log into a freshly rebuilt engine reproduces the exact
// pre-crash relations, replaying twice changes nothing (per-table
// AppliedLSN), and a replay that interleaves with an in-flight merge
// still converges to the same bytes.

// execStmt parses one DML statement and executes it at virtual time at.
func execStmt(t *testing.T, e *Engine, text string, at time.Duration) *DMLResult {
	t.Helper()
	st, err := sql.ParseStmt(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecDML(st.DML, at)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return res
}

// writeScript applies a fixed DML batch: inserts into a fresh custkey
// (-5), an update, and deletes over both main and delta rows.  Window 0
// durability: every commit flushes, so the whole script survives Crash.
func writeScript(t *testing.T, e *Engine) {
	t.Helper()
	at := time.Millisecond
	for _, stmt := range []string{
		"INSERT INTO orders (id, custkey, region, amount, day) VALUES (800001, -5, 'ASIA', 10.0, 15001), (800002, -5, 'ASIA', 20.0, 15001)",
		"INSERT INTO orders VALUES (800003, -5, 'EUROPE', 30.0, 15002)",
		"UPDATE orders SET amount = 99.0, region = 'AFRICA' WHERE custkey = -5 AND amount < 15.0",
		"DELETE FROM orders WHERE id = 800002",
		"DELETE FROM orders WHERE custkey = 3 AND amount > 5000.0",
		"INSERT INTO orders VALUES (800004, -5, 'ASIA', 40.0, 15003)",
	} {
		execStmt(t, e, stmt, at)
		at += time.Millisecond
	}
}

// snapshotQueries captures the relations recovery must reproduce.
func snapshotQueries(t *testing.T, e *Engine) []any {
	t.Helper()
	var out []any
	for _, q := range []string{
		"SELECT id, custkey, region, amount FROM orders WHERE custkey = -5 ORDER BY id",
		"SELECT COUNT(*), SUM(amount) FROM orders",
		"SELECT COUNT(*) FROM orders WHERE custkey = 3",
	} {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Rel)
	}
	return out
}

// freshReplica rebuilds the pre-crash base state (bulk load + seal is
// the "checkpoint"; only DML lives in the log) over the survivor log.
func freshReplica(t *testing.T, log *wal.Log) *Engine {
	t.Helper()
	e := openUnbatched(WithLog(log))
	loadOrders(t, e, 4000)
	return e
}

func TestWALReplayReproducesRelations(t *testing.T) {
	e1 := openUnbatched()
	loadOrders(t, e1, 4000)
	writeScript(t, e1)
	want := snapshotQueries(t, e1)

	log := e1.Log()
	log.Crash()

	e2 := freshReplica(t, log)
	applied, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("recovery applied no records")
	}
	if got := snapshotQueries(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered relations diverged:\n got %+v\nwant %+v", got, want)
	}

	// Idempotence: replaying the same log again is a no-op.
	again, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second replay applied %d records, want 0", again)
	}
	if got := snapshotQueries(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatal("second replay changed the relations")
	}
}

// TestWALReplayInterleavedWithMerge: recovery, then a scheduler-
// admitted background merge, then a second replay — the re-sealed
// layout must not double-apply records (AppliedLSN survives the merge)
// and the relations stay byte-identical.
func TestWALReplayInterleavedWithMerge(t *testing.T) {
	e1 := openUnbatched()
	loadOrders(t, e1, 4000)
	writeScript(t, e1)
	want := snapshotQueries(t, e1)
	log := e1.Log()
	log.Crash()

	e2 := freshReplica(t, log)
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}

	// Offer the merge but leave it in flight (queued, not yet run).
	l := e2.NewLoop(SchedulerConfig{Budget: 1, Arbitrate: true})
	mt := l.OfferMerge(0, "orders")
	if mt.Rejected {
		t.Fatalf("merge rejected: %v", mt.Err)
	}

	// Replay again while the merge is pending: idempotent, no effect.
	if n, err := e2.Recover(); err != nil || n != 0 {
		t.Fatalf("mid-merge replay applied %d records (err %v), want 0", n, err)
	}

	// Let the merge run, then replay once more over the re-sealed table.
	l.React()
	done := l.RunToIdle()
	if !mt.Done() || mt.Err != nil {
		t.Fatalf("merge did not complete cleanly: done=%v err=%v (settled %d)", mt.Done(), mt.Err, len(done))
	}
	tab, err := e2.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if tab.DeltaRows() != 0 {
		t.Fatalf("merge left %d delta rows", tab.DeltaRows())
	}
	if n, err := e2.Recover(); err != nil || n != 0 {
		t.Fatalf("post-merge replay applied %d records (err %v), want 0", n, err)
	}
	if got := snapshotQueries(t, e2); !reflect.DeepEqual(got, want) {
		t.Fatal("merge + replay changed the relations")
	}

	// The merge ran as a priced, admitted query: its ticket reports a
	// relation (the compaction receipt) and billed energy.
	if mt.Rel == nil || mt.Rel.N != 1 || mt.Energy.Total() <= 0 {
		t.Fatalf("merge ticket lacks receipt or bill: rel=%v energy=%v", mt.Rel, mt.Energy)
	}
	if mt.PlanInfo == nil || mt.PlanInfo.Est.Energy <= 0 {
		t.Fatal("merge was not priced by the planner")
	}
	if mt.Objective != opt.MinEnergy {
		t.Fatalf("merge objective %v, want min-energy", mt.Objective)
	}
}
