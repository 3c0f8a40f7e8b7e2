package core

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sched"
)

// Loop is the engine's one execution entry: the only place a read query
// (or a background maintenance task) is admitted, granted cores,
// executed and billed.  It exposes the plan→schedule→execute machinery
// one event at a time, so an online front end (internal/server) can
// interleave arrivals, virtual-time advancement, lease resizes, and
// completions; Engine.Run is an offer on a private one-shot Loop and
// Replay drives a prebuilt backlog through the same protocol, so the
// lone-query, batch and online paths cannot drift apart.
//
// Execution happens at virtual completion time: when the scheduler
// retires a group, the group's physical plan runs exactly once under a
// revocable core lease sized to the group's widest grant, and every
// live member adopts the relation with the full work attributed to it.
// A member whose lease was canceled before the group retired is skipped
// (it reports exec.ErrCanceled); if every member canceled, the physical
// execution is elided entirely.
//
// The loop holds a ticket only while it is in flight: once React,
// AdvanceTo or RunToIdle has returned it, the caller's pointer is the
// only reference, so a long-lived server's memory does not grow with
// its history.
//
// Loop is not goroutine-safe — the server serializes access under its
// own mutex, and Replay drives it from one goroutine.
type Loop struct {
	e      *Engine
	mq     *sched.Loop
	live   map[int]*Ticket // admitted, not yet settled
	nextID int
	fm     energy.FleetMeter
}

// Ticket is one in-flight query in the online loop.  Its embedded
// SubmissionResult settles when Done reports true: synchronously on
// admission rejection or plan failure, otherwise when the query's group
// retires from the virtual machine.
type Ticket struct {
	SubmissionResult
	// Lease is the query's revocable core grant.  The loop resizes it to
	// the group's granted width when execution starts; Cancel revokes it
	// (running operators stop at the next morsel boundary).
	Lease *exec.Lease
	// SnapTS is the MVCC snapshot the query was admitted at: it reads
	// exactly the writes committed at or before its arrival, however long
	// it queues and whatever commits meanwhile.
	SnapTS int64
	// Decision reports how a per-query energy budget resolved the
	// objective (nil for offers without one).
	Decision *BudgetDecision
	// Table names the target of a background maintenance ticket
	// (OfferMerge, OfferRebalance); empty for queries.
	Table string

	node  exec.Node
	sched *sched.TaskSchedule
	// after is a maintenance ticket's post-run hook, called with Table:
	// the catalog refresh that re-derives what the planner prices against.
	after    func(table string) error
	canceled bool
	done     bool
}

// Done reports whether the ticket's result fields have settled.
func (t *Ticket) Done() bool { return t.done }

// Cancel abandons the ticket: its lease is revoked, and when its group
// retires the loop skips this member during result adoption (the query
// reports exec.ErrCanceled).  Canceling a settled ticket is a no-op.
func (t *Ticket) Cancel() {
	if t.done {
		return
	}
	t.canceled = true
	t.Lease.Cancel()
}

// NewLoop opens an online scheduling loop over the engine.  The
// resident-DRAM footprint for the static-power floor is sampled once,
// here — load and seal tables before opening the loop.
func (e *Engine) NewLoop(cfg SchedulerConfig) *Loop {
	return &Loop{
		e: e,
		mq: sched.NewLoop(sched.MQConfig{
			Budget:     cfg.Budget,
			QueueDepth: cfg.QueueDepth,
			BatchScans: cfg.BatchScans,
			Arbitrate:  cfg.Arbitrate,
			Model:      e.model,
			PState:     e.cm.PState,
			MemGB:      e.residentGB(),
		}),
		live: make(map[int]*Ticket),
	}
}

// Now returns the loop's current virtual time.
func (l *Loop) Now() time.Duration { return l.mq.Now() }

// Queued returns the number of groups waiting for cores.
func (l *Loop) Queued() int { return l.mq.Queued() }

// Running returns the number of groups holding cores.
func (l *Loop) Running() int { return l.mq.Running() }

// Backlog returns the serial-equivalent CPU seconds of admitted,
// unfinished work — the basis for a Retry-After hint.
func (l *Loop) Backlog() time.Duration { return l.mq.Backlog() }

// NextFinish returns the virtual time of the earliest scheduled group
// completion, or false when the machine is idle.
func (l *Loop) NextFinish() (time.Duration, bool) { return l.mq.NextFinish() }

// Ticket returns an in-flight ticket (nil for unknown IDs and for
// tickets that have settled — those belong to whoever was handed them).
func (l *Loop) Ticket(id int) *Ticket { return l.live[id] }

// Offer plans a query and submits it to the virtual machine at arrival
// time `at`, returning the ticket.  A positive energy budget overrides
// the objective per query (Figure 2 as an API): the fastest plan whose
// energy estimate fits wins, the most frugal when none fits, and the
// ticket carries the decision.  Plan failures settle the ticket
// synchronously (Rejected + Err), as do queue-depth rejections; call
// React after the last offer of an instant.
func (l *Loop) Offer(at time.Duration, q *opt.Query, obj opt.Objective, budget energy.Joules) *Ticket {
	if budget <= 0 {
		node, info, err := l.e.cat.Plan(q, l.e.cm, obj)
		return l.offerRead(at, node, info, obj, err)
	}
	dec, node, info, err := l.e.resolveObjective(q, budget)
	if err != nil {
		return l.offerRead(at, nil, nil, obj, err)
	}
	t := l.offerRead(at, node, info, dec.Chosen, nil)
	t.Decision = dec
	return t
}

// OfferPlanned submits an already-planned query — the entry point for a
// server-side plan cache, where a cache hit skips parse and plan
// entirely.  Plan nodes are stateless across runs, so the same node may
// back many tickets, but the loop executes at most one group at a time,
// never a node concurrently with itself.
func (l *Loop) OfferPlanned(at time.Duration, node exec.Node, info *opt.PlanInfo, obj opt.Objective) *Ticket {
	return l.offerRead(at, node, info, obj, nil)
}

// offerRead admits a read at the current commit snapshot.  The snapshot
// is part of the share key: a lookalike admitted after an intervening
// commit reads different data and must not ride.
func (l *Loop) offerRead(at time.Duration, node exec.Node, info *opt.PlanInfo, obj opt.Objective, planErr error) *Ticket {
	t := &Ticket{node: node, SnapTS: l.e.txm.SnapshotTS()}
	t.Objective, t.PlanInfo = obj, info
	return l.admit(at, t, strconv.FormatInt(t.SnapTS, 10), planErr)
}

// OfferMerge plans the delta merge of a table and submits it as a
// BACKGROUND task under min-energy — "merge as a query": it passes
// through the same admission, pricing, and dispatch as user queries, but
// the dispatcher defers it while any foreground query waits and races it
// to idle on an empty queue.  The merge horizon (oldest live snapshot)
// is resolved at execution time, so readers admitted before the merge
// runs keep their consistent view.  Compaction changes the physical
// layout, so the ticket's hook re-derives the table's statistics.
func (l *Loop) OfferMerge(at time.Duration, table string) *Ticket {
	return l.offerMaintenance(at, table, "merge", opt.PlanMerge, l.e.cat.RefreshStats)
}

// OfferRebalance plans the shard-narrowing rebalance of a sharded table
// and submits it as a background task under min-energy — "rebalance as
// a query", the same treatment OfferMerge gives the delta merge.  The
// rebalance re-cuts the shards, so the ticket's hook refreshes zone
// bounds and every per-shard statistic.
func (l *Loop) OfferRebalance(at time.Duration, table string) *Ticket {
	return l.offerMaintenance(at, table, "rebalance", opt.PlanRebalance, l.e.cat.RefreshSharded)
}

func (l *Loop) offerMaintenance(at time.Duration, table, kind string,
	plan func(*opt.Catalog, *opt.CostModel, string, func() int64) (exec.Node, *opt.PlanInfo, error),
	refresh func(string) error) *Ticket {
	node, info, err := plan(l.e.cat, l.e.cm, table, l.oldestLiveSnap)
	t := &Ticket{Table: table, node: node, after: refresh}
	t.Objective, t.PlanInfo = opt.MinEnergy, info
	return l.admit(at, t, kind, err)
}

// admit is the loop's one admission block: it numbers the ticket,
// settles a plan failure on the spot (a submission that cannot plan
// fails alone; the loop keeps serving), and otherwise offers the
// ticket's task to the virtual machine, mirroring a queue-depth
// rejection.  share is the middle of the share key — the snapshot for a
// read, the kind for maintenance.
func (l *Loop) admit(at time.Duration, t *Ticket, share string, planErr error) *Ticket {
	t.ID = l.nextID
	l.nextID++
	t.Lease = exec.NewLease(1)
	if planErr != nil {
		t.Rejected, t.done = true, true
		t.Err = fmt.Errorf("core: submission %d: %w", t.ID, planErr)
		return t
	}
	task := sched.Task{
		Seq:      t.ID,
		Arrival:  at,
		Work:     t.PlanInfo.Est.Work,
		ShareKey: fmt.Sprintf("%d|%s|%s", t.Objective, share, t.PlanInfo.ShareSig),
		Goal:     goalOf(t.Objective),
	}
	if t.Table != "" {
		// Maintenance is serial (extra cores would idle) and yields to
		// foreground queries.
		task.MaxDOP, task.Background = 1, true
	}
	t.sched = l.mq.Offer(task)
	if t.sched.Rejected {
		t.Rejected, t.done = true, true
	} else {
		l.live[t.ID] = t
	}
	return t
}

// oldestLiveSnap returns the oldest snapshot any in-flight read ticket
// holds — the merge horizon: tombstones at or below it are invisible to
// every in-flight reader, so their rows may be compacted away.  Zero
// (compact everything) when no reader is in flight.
func (l *Loop) oldestLiveSnap() int64 {
	var oldest int64
	//lint:allow determinism: a minimum over the in-flight set does not depend on visit order
	for _, t := range l.live {
		if t.SnapTS > 0 && (oldest == 0 || t.SnapTS < oldest) {
			oldest = t.SnapTS
		}
	}
	return oldest
}

// React runs the post-arrival half of an event — dispatch plus budget
// re-arbitration — and executes any groups that retired.  It returns
// the tickets that settled.
func (l *Loop) React() []*Ticket {
	return l.finalize(l.mq.React())
}

// AdvanceTo moves virtual time forward to t, executing every group that
// finishes at or before t (each departure re-prices the survivors).
// Returns the tickets that settled, in completion order.
func (l *Loop) AdvanceTo(t time.Duration) []*Ticket {
	return l.finalize(l.mq.AdvanceTo(t))
}

// RunToIdle drains the virtual machine, executing every remaining
// group.  Returns the tickets that settled.
func (l *Loop) RunToIdle() []*Ticket {
	return l.finalize(l.mq.RunToIdle())
}

// finalize turns scheduler completions into executed results and hands
// the tickets over (the loop forgets them): the first non-canceled
// member runs the physical plan once at the group's widest grant, and
// every other live member adopts the relation with the full work
// attributed to it (the fleet meter's two books record the gap).
func (l *Loop) finalize(cs []sched.Completion) []*Ticket {
	var out []*Ticket
	e := l.e
	for _, c := range cs {
		group := len(out)
		var runner *Ticket
		for _, seq := range c.Members {
			t := l.live[seq]
			delete(l.live, seq)
			t.Start, t.Finish, t.Latency = t.sched.Start, t.sched.Finish, t.sched.Latency
			t.DOP, t.GroupSize = t.sched.MaxDOP, t.sched.GroupSize
			t.Shared = seq != c.Leader
			t.done = true
			if runner == nil && !t.canceled {
				runner = t
			}
			out = append(out, t)
		}
		if runner != nil {
			runner.Lease.Resize(runner.DOP)
			ctx := exec.NewCtx()
			ctx.Lease = runner.Lease
			ctx.SnapTS = runner.SnapTS
			rel, err := runner.node.Run(ctx)
			if err == nil && runner.after != nil {
				err = runner.after(runner.Table)
			}
			if err != nil {
				// An execution failure is isolated like a plan failure:
				// this group reports the error, the loop keeps serving.
				runner.Err = fmt.Errorf("core: submission %d: %w", runner.ID, err)
			} else {
				runner.Rel = rel
				runner.Work = ctx.Meter.Snapshot()
				runner.SimTime = ctx.SimTime
				runner.Energy = e.bill(runner.Work, runner.SimTime)
				l.fm.AddQuery(runner.Work)
				e.meter.Add(runner.Work) // lifetime work counts physical, not billed
			}
		}
		for _, t := range out[group:] {
			if t == runner {
				continue
			}
			if t.canceled {
				t.Err = fmt.Errorf("core: submission %d: %w", t.ID, exec.ErrCanceled)
				continue
			}
			if runner.Err != nil {
				t.Err = runner.Err
				continue
			}
			t.Rel, t.Work, t.SimTime, t.Energy = runner.Rel, runner.Work, runner.SimTime, runner.Energy
			l.fm.AddSharedQuery(t.Work)
		}
	}
	return out
}

// Report snapshots the fleet's books: the virtual-time schedule's
// totals and the meter's two books.  It is O(1) in the loop's history
// and may be called repeatedly (a serving /stats endpoint) — the
// lifetime meter is charged per execution, never here.  Per-submission
// results belong to whoever holds the tickets (see Replay).
func (l *Loop) Report() *ScheduleReport {
	report := &ScheduleReport{
		Fleet:      l.mq.Result(),
		Attributed: l.fm.Attributed(),
		Physical:   l.fm.Physical(),
	}
	report.FleetDynamic = l.e.model.DynamicEnergy(report.Physical, l.e.cm.PState).Total()
	report.SavedDynamic = l.fm.SavedDynamic(l.e.model, l.e.cm.PState)
	return report
}
