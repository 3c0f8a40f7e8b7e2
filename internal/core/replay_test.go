package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/experiments/synth"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/workload"
)

// submitEngine builds an engine with a sealed orders table of n rows.
func submitEngine(t testing.TB, n int) *Engine {
	t.Helper()
	e := Open()
	o := workload.GenOrders(42, n, n/100+10, 1.1)
	tab, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "amount", Type: colstore.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Int64("id", o.OrderID...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Int64("custkey", o.CustKey...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Float64("amount", o.Amount...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal("orders"); err != nil {
		t.Fatal(err)
	}
	return e
}

// backlog parses SQL texts into submissions under min-time at the given
// arrival offset.
func backlog(t testing.TB, at []workload.Arrival) []Submission {
	t.Helper()
	subs := make([]Submission, len(at))
	for i, a := range at {
		q, err := sql.Parse(a.SQL)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = Submission{Arrival: a.At, Q: q, Objective: opt.MinTime}
	}
	return subs
}

// storm is a deterministic open-loop storm of point aggregations over
// Zipf-hot customer keys (the shared PointStorm script).  Rates well
// above the per-query service rate build the queue that lets lookalikes
// batch.
func storm(t testing.TB, n int, rate float64) []Submission {
	return backlog(t, synth.PointStorm(9, n, rate, 1.3, 50).Arrivals)
}

// at0 is a same-instant backlog of the given statements.
func at0(t testing.TB, texts ...string) []Submission {
	arr := make([]workload.Arrival, len(texts))
	for i, text := range texts {
		arr[i].SQL = text
	}
	return backlog(t, arr)
}

// TestReplayInvariantAcrossBudgets is the multi-query scheduler's core
// acceptance: the same backlog replayed under different core budgets and
// batching settings yields byte-identical per-query relations and
// identical attributed counters — only the fleet schedule and physical
// energy may differ.
func TestReplayInvariantAcrossBudgets(t *testing.T) {
	const nq = 24
	run := func(budget int, batch bool) *ScheduleReport {
		e := submitEngine(t, 1<<16)
		return e.NewLoop(SchedulerConfig{Budget: budget, BatchScans: batch, Arbitrate: true}).Replay(storm(t, nq, 500_000))
	}
	base := run(1, false)
	if len(base.Results) != nq {
		t.Fatalf("lost submissions: %d", len(base.Results))
	}
	for _, budget := range []int{2, 8} {
		for _, batch := range []bool{false, true} {
			rep := run(budget, batch)
			for i := range rep.Results {
				got, want := rep.Results[i], base.Results[i]
				if !reflect.DeepEqual(got.Rel, want.Rel) {
					t.Fatalf("budget=%d batch=%v: query %d relation differs", budget, batch, i)
				}
				if got.Work != want.Work {
					t.Fatalf("budget=%d batch=%v: query %d attributed counters differ:\n%+v\n%+v",
						budget, batch, i, got.Work, want.Work)
				}
			}
			if rep.Attributed != base.Attributed {
				t.Fatalf("budget=%d batch=%v: attributed book differs", budget, batch)
			}
		}
	}
}

// TestReplaySharedScanSavesPhysicalWork: batching a hot-key storm leaves
// the attributed book untouched but shrinks the physical one.
func TestReplaySharedScanSavesPhysicalWork(t *testing.T) {
	const nq = 24
	run := func(batch bool) *ScheduleReport {
		e := submitEngine(t, 1<<16)
		return e.NewLoop(SchedulerConfig{Budget: 2, BatchScans: batch, Arbitrate: true}).Replay(storm(t, nq, 500_000))
	}
	batched, solo := run(true), run(false)
	if batched.Fleet.SharedGroups == 0 {
		t.Fatal("hot-key storm formed no shared groups")
	}
	if batched.Attributed != solo.Attributed {
		t.Fatal("batching must not change the attributed book")
	}
	if batched.Physical.BytesReadDRAM >= solo.Physical.BytesReadDRAM {
		t.Fatalf("batching must stream fewer physical bytes: %d vs %d",
			batched.Physical.BytesReadDRAM, solo.Physical.BytesReadDRAM)
	}
	if batched.SavedDynamic <= 0 {
		t.Fatalf("saved dynamic energy must be positive, got %v", batched.SavedDynamic)
	}
	shared := 0
	for _, r := range batched.Results {
		if r.Shared {
			shared++
			if r.Rel == nil || r.GroupSize < 2 {
				t.Fatalf("rider %d missing its relation or group: %+v", r.ID, r)
			}
		}
	}
	if shared != batched.Fleet.SharedTasks {
		t.Fatalf("rider bookkeeping mismatch: %d vs %d", shared, batched.Fleet.SharedTasks)
	}
	if batched.AvgLatency <= 0 || batched.P95Latency < batched.AvgLatency/2 {
		t.Fatalf("latency summary not filled: avg %v p95 %v", batched.AvgLatency, batched.P95Latency)
	}
}

// TestReplayRejectsBeyondQueueDepth: admission control surfaces in the
// per-query results, and rejected queries carry no relation.
func TestReplayRejectsBeyondQueueDepth(t *testing.T) {
	e := submitEngine(t, 1<<16)
	var texts []string
	for i := 0; i < 6; i++ {
		// Distinct keys at one instant: no batching escape hatch.
		texts = append(texts, fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE custkey = %d", i))
	}
	l := e.NewLoop(SchedulerConfig{Budget: 1, QueueDepth: 2, BatchScans: true, Arbitrate: true})
	rep := l.Replay(at0(t, texts...))
	if rep.Fleet.Rejected != 4 {
		t.Fatalf("want 4 rejections past depth 2, got %d", rep.Fleet.Rejected)
	}
	for _, r := range rep.Results {
		if r.Rejected && r.Rel != nil {
			t.Fatalf("rejected query %d has a relation", r.ID)
		}
		if !r.Rejected && r.Rel == nil {
			t.Fatalf("completed query %d lost its relation", r.ID)
		}
	}
	if len(l.live) != 0 {
		t.Fatalf("replay left %d tickets in the loop", len(l.live))
	}
}

// TestReplayIsolatesPlanFailures: one unplannable submission (unknown
// table passes parsing but fails at plan time) must fail alone; the
// rest of the backlog still drains to completion.
func TestReplayIsolatesPlanFailures(t *testing.T) {
	e := submitEngine(t, 1<<16)
	rep := e.NewLoop(SchedulerConfig{Budget: 2, Arbitrate: true}).Replay(at0(t,
		"SELECT COUNT(*) FROM orders WHERE custkey = 1",
		"SELECT COUNT(*) FROM nosuch", // parses fine; only planning knows the catalog
		"SELECT COUNT(*) FROM orders WHERE custkey = 2"))
	bad := rep.Results[1]
	if !bad.Rejected || bad.Err == nil || bad.Rel != nil {
		t.Fatalf("unplannable submission must fail alone: %+v", bad)
	}
	for _, i := range []int{0, 2} {
		r := rep.Results[i]
		if r.Rejected || r.Err != nil || r.Rel == nil {
			t.Fatalf("valid submission %d poisoned by its neighbor: %+v", i, r)
		}
	}
	if rep.Fleet.Completed != 2 {
		t.Fatalf("completed = %d, want 2", rep.Fleet.Completed)
	}
}

// parentBill is the bill Engine.Run charged before every execution went
// through the loop: dynamic energy and active-core static over the
// modeled CPU time.
func parentBill(e *Engine, work energy.Counters) energy.Breakdown {
	m, p := e.Model(), e.Model().Core.MaxPState()
	b := m.DynamicEnergy(work, p)
	b.Static = energy.StaticEnergy(p.Active, m.CPUTime(work, p))
	return b
}

// TestRunLoopIdentityMatrix: there is one execution entry, so for every
// E-suite query shape Engine.Run, a ticket offered on a loop of any core
// budget, and the plan run bare on one core at SnapLatest (what Run did
// before it became an offer) agree bit for bit on relation, counters and
// bill — on an engine whose commit clock has moved and whose delta and
// tombstone lists are non-empty, so an offer at the current snapshot
// must read and charge exactly what "everything committed" does.
func TestRunLoopIdentityMatrix(t *testing.T) {
	const n = 1 << 17 // two morsels per scan
	loadCust := func(e *Engine) {
		tab, err := e.CreateTable("cust", colstore.Schema{
			{Name: "ckey", Type: colstore.Int64},
			{Name: "tier", Type: colstore.Int64},
		})
		if err != nil {
			t.Fatal(err)
		}
		keys, tiers := make([]int64, 600), make([]int64, 600)
		for i := range keys {
			keys[i], tiers[i] = int64(i), int64(i%5)
		}
		if err := tab.Writer().Int64("ckey", keys...).Close(); err != nil {
			t.Fatal(err)
		}
		if err := tab.Writer().Int64("tier", tiers...).Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.Seal("cust"); err != nil {
			t.Fatal(err)
		}
	}
	flat := Open()
	loadOrders(t, flat, n)
	loadCust(flat)
	execStmt(t, flat, "INSERT INTO orders VALUES (900001, 7, 'ASIA', 150.5, 15001)", 0)
	execStmt(t, flat, "DELETE FROM orders WHERE custkey = 11", 0)
	execStmt(t, flat, "UPDATE orders SET amount = 175.25 WHERE custkey = 13", 0)
	if flat.Txn().SnapshotTS() == 0 {
		t.Fatal("commit clock never moved")
	}
	cases := []struct {
		name string
		e    *Engine
		sql  string
	}{
		{"scan", flat, "SELECT id, custkey, amount FROM orders WHERE custkey < 40"},
		{"fused agg", flat, "SELECT custkey, COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey < 120 GROUP BY custkey"},
		{"float agg", flat, "SELECT region, SUM(amount) AS rev FROM orders WHERE amount > 100 GROUP BY region"},
		{"join", flat, "SELECT tier, COUNT(*) AS n FROM orders JOIN cust ON orders.custkey = cust.ckey WHERE amount > 100.0 GROUP BY tier"},
	}
	for _, c := range cases {
		q, err := sql.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want.Rel.N == 0 {
			t.Fatalf("%s: empty relation proves nothing", c.name)
		}

		node, _, err := c.e.Plan(q, opt.MinTime)
		if err != nil {
			t.Fatal(err)
		}
		ctx := exec.NewCtx()
		ctx.Lease = exec.NewLease(1)
		rel, err := node.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		work := ctx.Meter.Snapshot()
		if !reflect.DeepEqual(rel, want.Rel) || work != want.Work || parentBill(c.e, work) != want.Energy {
			t.Fatalf("%s: Run differs from the bare one-core run at SnapLatest:\n%+v\n%+v", c.name, want.Work, work)
		}

		for _, budget := range []int{1, 2, 8} {
			l := c.e.NewLoop(SchedulerConfig{Budget: budget, Arbitrate: true})
			tk := l.Offer(0, q, opt.MinTime)
			l.React()
			l.RunToIdle()
			if tk.Err != nil {
				t.Fatalf("%s budget %d: %v", c.name, budget, tk.Err)
			}
			if !reflect.DeepEqual(tk.Rel, want.Rel) {
				t.Fatalf("%s budget %d: ticket relation differs from Run", c.name, budget)
			}
			if tk.Work != want.Work || tk.Energy != want.Energy {
				t.Fatalf("%s budget %d: ticket bill differs from Run:\n%+v %+v\n%+v %+v",
					c.name, budget, tk.Work, tk.Energy, want.Work, want.Energy)
			}
		}
	}
}

// TestLoopForgetsSettledTickets: the loop holds a ticket only while it
// is in flight.  Once React / AdvanceTo / RunToIdle has handed it back
// the caller's pointer is the only reference, the merge horizon visits
// in-flight readers only, and Report still carries the fleet books.
func TestLoopForgetsSettledTickets(t *testing.T) {
	e := submitEngine(t, 1<<16)
	execStmt(t, e, "INSERT INTO orders VALUES (900001, 7, 1.5)", 0) // SnapshotTS > 0: readers hold a real snapshot
	l := e.NewLoop(SchedulerConfig{Budget: 1, QueueDepth: 4, BatchScans: true, Arbitrate: true})
	const n = 12
	var held, settled []*Ticket
	for i, s := range storm(t, n, 500_000) {
		settled = append(settled, l.AdvanceTo(s.Arrival)...)
		tk := l.Offer(s.Arrival, s.Q, s.Objective)
		if !tk.Rejected && l.Ticket(tk.ID) != tk {
			t.Fatalf("offer %d: admitted ticket is not in flight", i)
		}
		if tk.Rejected && l.Ticket(tk.ID) != nil {
			t.Fatalf("offer %d: rejected ticket was kept", i)
		}
		held = append(held, tk)
		settled = append(settled, l.React()...)
	}
	if len(l.live) == 0 || l.oldestLiveSnap() != e.Txn().SnapshotTS() {
		t.Fatalf("a 1-core storm must leave readers in flight holding the snapshot: %d live, horizon %d",
			len(l.live), l.oldestLiveSnap())
	}
	settled = append(settled, l.RunToIdle()...)

	if len(l.live) != 0 {
		t.Fatalf("loop still holds %d tickets after RunToIdle", len(l.live))
	}
	if got := l.oldestLiveSnap(); got != 0 {
		t.Fatalf("merge horizon %d with no reader in flight", got)
	}
	completed := 0
	for _, tk := range held {
		if !tk.Done() {
			t.Fatalf("ticket %d never settled", tk.ID)
		}
		if l.Ticket(tk.ID) != nil {
			t.Fatalf("settled ticket %d still reachable through the loop", tk.ID)
		}
		if !tk.Rejected {
			completed++
			if tk.Rel == nil {
				t.Fatalf("ticket %d lost its relation", tk.ID)
			}
		}
	}
	if len(settled) != completed {
		t.Fatalf("loop handed back %d tickets, %d completed", len(settled), completed)
	}
	if rep := l.Report(); rep.Fleet.Completed != completed || rep.Fleet.Rejected != n-completed || rep.Attributed == (energy.Counters{}) {
		t.Fatalf("fleet books lost with the tickets: %+v", rep.Fleet)
	}
}

// TestConcurrentQueryLeavesObjectiveAlone: concurrent Query calls on one
// engine share no scheduling state.  Under -race: two goroutines querying
// at once each get every result equal to its solo run.
func TestConcurrentQueryLeavesObjectiveAlone(t *testing.T) {
	e := Open()
	loadOrders(t, e, 20_000)
	const probe = "SELECT id FROM orders WHERE id < 200"
	want, err := e.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got, want *Result) bool {
		return got.PlanInfo.Explain == want.PlanInfo.Explain && reflect.DeepEqual(got.Rel, want.Rel) &&
			got.Work == want.Work && got.Energy == want.Energy
	}

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds) // one slot per query issued below
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.Query(probe)
				switch {
				case err != nil:
					errs <- err
				case !same(res, want):
					errs <- errors.New("Query answered differently from its solo run")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
