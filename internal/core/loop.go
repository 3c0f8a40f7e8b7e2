package core

import (
	"errors"
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
// Execution starts at virtual DISPATCH: when the scheduler gives a group
// cores, the group's physical plan starts on a goroutine of its own —
// once, under a revocable core lease that follows the group's live grant
// through every re-arbitration — so the real work overlaps the modeled
// wait, and groups the virtual machine runs side by side run side by
// side on real cores.  The group settles — bill, fleet meter, rider
// adoption — at max(virtual finish, real finish): every live member
// adopts the relation with the full work attributed to it.  A member
// whose lease was canceled is skipped (it reports exec.ErrCanceled; a
// canceled runner hands the run to the next live member), and a group
// whose every member canceled before dispatch never executes.
//
// React and AdvanceTo never wait for a running execution: a group whose
// virtual schedule is over but whose real run is not is held back and
// returned, settled, by a later call (OnExecuted tells the owner when).
// RunToIdle is the joining call — it waits for every run still going,
// which is all a driver with nobody else to serve needs.  Background
// maintenance is the exception to all of it: a merge still
// executes at virtual retirement, inside the event call that retired it.
//
// Executions hold the engine's data latch (Engine.latch) shared, taken
// at dispatch on the loop's goroutine and released when the run returns;
// ExecDML and maintenance hold it exclusively.  Every write thereby waits
// for exactly the reads dispatched before it and no read dispatched after
// it starts until it is done: what a read's kernels touch is a function
// of the virtual schedule, never of goroutine timing.  Lock order for an
// owner that serializes the loop under a mutex of its own (the server's
// s.mu): owner mutex → latch, never the reverse — an execution goroutine
// holds the latch and takes nothing else.
//
// The loop holds a ticket only while it is in flight: once React,
// AdvanceTo or RunToIdle has returned it, the caller's pointer is the
// only reference, so a long-lived server's memory does not grow with
// its history.
//
// Loop is not goroutine-safe — the server serializes access under its
// own mutex, and Replay drives it from one goroutine.  Execution
// goroutines touch no loop state.
type Loop struct {
	e      *Engine
	mq     *sched.Loop
	live   map[int]*Ticket // admitted, not yet settled
	nextID int
	fm     energy.FleetMeter
	// retired holds, in retirement order, the groups whose virtual
	// schedule is over and whose real run has not been seen to finish yet.
	retired  []*execution
	executed func() // OnExecuted hook
}

// execution is one dispatched group's physical run: one node.Run whose
// relation every live member adopts.
type execution struct {
	members []*Ticket // leader first, then riders in admission order
	retired bool      // the group's virtual schedule is over
	// done closes when the run has finished; the result fields are
	// written before that and read only after it.
	done chan struct{}
	rel  *exec.Relation
	work energy.Counters
	err  error
}

// Ticket is one in-flight query in the online loop.  Its embedded
// SubmissionResult settles when Done reports true: synchronously on
// admission rejection or plan failure, otherwise once the query's group
// has retired from the virtual machine and its execution has finished.
type Ticket struct {
	SubmissionResult
	// Lease is the query's revocable core grant.  The loop keeps it at the
	// group's granted width while the group runs; Cancel revokes it
	// (running operators stop at the next morsel boundary).
	Lease *exec.Lease
	// SnapTS is the MVCC snapshot the query was admitted at: it reads
	// exactly the writes committed at or before its arrival, however long
	// it queues and whatever commits meanwhile.
	SnapTS int64
	// Table names the target of a background merge ticket (OfferMerge);
	// empty for queries.
	Table string

	node  exec.Node
	sched *sched.TaskSchedule
	// after is a maintenance ticket's post-run hook, called with Table:
	// the catalog refresh that re-derives what the planner prices against.
	after   func(table string) error
	x       *execution // the group's run, from dispatch on
	pins    *snapshots // a read's engine-wide snapshot pins; nil for maintenance
	done    bool
	settled chan struct{}
}

// Settled is closed once the ticket's result fields have settled: the
// ticket's own completion, for a goroutine parked outside the loop's
// serialization (a request handler).  The fields may be read after it
// without further locking.
func (t *Ticket) Settled() <-chan struct{} { return t.settled }

// Cancel abandons the ticket: its lease is revoked — if the query is
// executing, its operators stop at the next morsel boundary — and the
// loop skips this member during result adoption (the query reports
// exec.ErrCanceled).  Canceling a settled ticket is a no-op.
func (t *Ticket) Cancel() {
	if !t.done {
		t.Lease.Cancel()
	}
}

// settle marks the ticket's result final, releases a read's snapshot pin
// and whoever waits.
func (t *Ticket) settle() {
	if t.pins != nil {
		t.pins.unpin(t.SnapTS)
	}
	t.done = true
	close(t.settled)
}

// fail records the ticket's failure, prefixed with its ID.
func (t *Ticket) fail(err error) {
	t.Err = fmt.Errorf("core: submission %d: %w", t.ID, err)
}

// execute is the one place a plan runs: the ticket's node, at the
// ticket's snapshot, under the ticket's lease, then the maintenance
// hook if there is one.  It is called with no mutex held (the data latch
// aside) and touches no loop state.  A panic in an operator is this
// query's failure, not the process's: it is recovered into the returned
// error, so the latch is released, the ticket settles as Err and the
// loop keeps serving.
func (t *Ticket) execute() (rel *exec.Relation, work energy.Counters, err error) {
	defer func() {
		if r := recover(); r != nil {
			rel, err = nil, fmt.Errorf("panic during execution: %v", r)
		}
	}()
	ctx := exec.NewCtx()
	ctx.Lease = t.Lease
	ctx.SnapTS = t.SnapTS
	rel, err = t.node.Run(ctx)
	if err == nil && t.after != nil {
		err = t.after(t.Table)
	}
	return rel, ctx.Meter.Snapshot(), err
}

// run executes the group's plan once, as its first live member.  A
// runner whose lease is revoked mid-run returns ErrCanceled; the run
// then passes to the next live member, so one client hanging up never
// fails the lookalikes riding along.
func (x *execution) run() {
	for _, t := range x.members {
		if t.Lease.Canceled() {
			continue
		}
		x.rel, x.work, x.err = t.execute()
		if !errors.Is(x.err, exec.ErrCanceled) {
			return
		}
	}
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

// OnExecuted registers fn to be called each time a group's execution
// finishes — on the execution's goroutine, with no lock held.  The owner
// of a long-lived loop calls Settle from there (under its own
// serialization), so a group held back for its real run settles without
// waiting for the next arrival.  Set it before the first offer.
func (l *Loop) OnExecuted(fn func()) { l.executed = fn }

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
//
//lint:allow reach: internal/server cancellation tests fetch the ticket a request handler owns
func (l *Loop) Ticket(id int) *Ticket { return l.live[id] }

// Offer plans a query and submits it to the virtual machine at arrival
// time `at` under the objective's scheduler goal, returning the ticket.
// Plan failures settle the ticket synchronously (Rejected + Err), as do
// queue-depth rejections; call React after the last offer of an instant.
func (l *Loop) Offer(at time.Duration, q *opt.Query, obj opt.Objective) *Ticket {
	node, info, err := l.e.cat.Plan(q, l.e.cm)
	return l.offerRead(at, node, info, obj, err)
}

// OfferPlanned submits an already-planned query — the entry point for a
// server-side plan cache, where a cache hit skips parse and plan
// entirely.  Plan nodes keep no state across or during runs, so the same
// node may back many tickets and run concurrently with itself when the
// virtual machine runs two of them side by side.
func (l *Loop) OfferPlanned(at time.Duration, node exec.Node, info *opt.PlanInfo, obj opt.Objective) *Ticket {
	return l.offerRead(at, node, info, obj, nil)
}

// offerRead admits a read at the current commit snapshot.  The snapshot
// is part of the share key: a lookalike admitted after an intervening
// commit reads different data and must not ride.
func (l *Loop) offerRead(at time.Duration, node exec.Node, info *opt.PlanInfo, obj opt.Objective, planErr error) *Ticket {
	t := &Ticket{node: node, SnapTS: l.e.reads.pin(l.e.txm), pins: &l.e.reads}
	t.Objective, t.PlanInfo = obj, info
	return l.admit(at, t, strconv.FormatInt(t.SnapTS, 10), planErr)
}

// OfferMerge plans the delta merge of a table and submits it as a
// BACKGROUND task under min-energy — "merge as a query": it passes
// through the same admission, pricing, and dispatch as user queries, but
// the dispatcher defers it while any foreground query waits and races it
// to idle on an empty queue.  The merge horizon (oldest live snapshot)
// is resolved at execution time, so readers admitted before the merge
// runs keep their consistent view.
//
// A merge changes the physical layout, so the ticket's one post-run hook
// re-derives every statistic of the table.
func (l *Loop) OfferMerge(at time.Duration, table string) *Ticket {
	node, info, err := opt.PlanMerge(l.e.cat, l.e.cm, table, l.oldestLiveSnap)
	t := &Ticket{Table: table, node: node, after: l.e.cat.Refresh}
	t.Objective, t.PlanInfo = opt.MinEnergy, info
	return l.admit(at, t, "merge", err)
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
	t.settled = make(chan struct{})
	if planErr != nil {
		t.Rejected = true
		t.fail(planErr)
		t.settle()
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
		t.Rejected = true
		t.settle()
	} else {
		l.live[t.ID] = t
	}
	return t
}

// oldestLiveSnap returns the oldest snapshot any read ticket still in
// the virtual machine holds — the merge horizon: tombstones at or below
// it are invisible to every such reader, so their rows may be compacted
// away.  Zero (compact everything) when there is none.  A read whose
// group has retired is not counted: it took the data latch at dispatch
// and the maintenance run asking holds it exclusively, so that read has
// finished — and leaving it out keeps the horizon a function of the
// virtual schedule alone.  A maintenance ticket holds no snapshot.
func (l *Loop) oldestLiveSnap() int64 {
	var oldest int64
	//lint:allow determinism: a minimum over the in-flight set does not depend on visit order
	for _, t := range l.live {
		if t.pins == nil || t.x != nil && t.x.retired {
			continue
		}
		if oldest == 0 || t.SnapTS < oldest {
			oldest = t.SnapTS
		}
	}
	return oldest
}

// React runs the post-arrival half of an event — dispatch plus budget
// re-arbitration — starting the execution of every group that took cores.
// It returns the tickets that settled.
func (l *Loop) React() []*Ticket {
	return l.step(l.mq.React(), false)
}

// AdvanceTo moves virtual time forward to t, retiring every group that
// finishes at or before t (each departure re-prices the survivors and
// may dispatch a successor).  Returns the tickets that settled, groups
// in retirement order.
func (l *Loop) AdvanceTo(t time.Duration) []*Ticket {
	return l.step(l.mq.AdvanceTo(t), false)
}

// RunToIdle drains the virtual machine and waits for every execution
// still running.  Returns the tickets that settled — every ticket that
// was in flight.
func (l *Loop) RunToIdle() []*Ticket {
	return l.step(l.mq.RunToIdle(), true)
}

// Settle hands over the retired groups whose execution has finished
// since the last event call, without touching the virtual machine — the
// call OnExecuted's hook makes.
func (l *Loop) Settle() []*Ticket { return l.settle(false) }

// step applies the scheduler's events since the last call, in
// virtual-time order — a dispatch starts the group's execution, a
// completion retires it — points every running lease at its group's
// live grant, and settles the retired groups whose run has finished
// (join: waits for the others too).
func (l *Loop) step(cs []sched.Completion, join bool) []*Ticket {
	ds := l.mq.Dispatched()
	for len(ds) > 0 || len(cs) > 0 {
		if len(cs) == 0 || (len(ds) > 0 && ds[0].Order < cs[0].Order) {
			l.start(ds[0])
			ds = ds[1:]
		} else {
			l.retire(cs[0])
			cs = cs[1:]
		}
	}
	for _, t := range l.live {
		if t.x != nil {
			t.Lease.Resize(t.sched.Grant)
		}
	}
	return l.settle(join)
}

// start begins a dispatched group's execution: the data latch is taken
// here, shared, so the run is ordered against writes by the virtual
// schedule, and released by the run's own goroutine.  Maintenance only
// records the group — it executes at retirement.
func (l *Loop) start(d sched.Dispatch) {
	x := &execution{done: make(chan struct{})}
	for _, seq := range d.Members {
		t := l.live[seq]
		t.x = x
		t.Lease.Resize(t.sched.Grant) // before the run starts: it opens at the dispatch grant
		x.members = append(x.members, t)
	}
	if x.members[0].Table != "" {
		return
	}
	executed := l.executed
	l.e.latch.RLock()
	go func() {
		x.run()
		l.e.latch.RUnlock()
		close(x.done)
		if executed != nil {
			executed()
		}
	}()
}

// retire ends a group's virtual schedule: every member takes its final
// schedule facts, and the group queues for settlement.  A maintenance
// group executes here, under the exclusive data latch.
func (l *Loop) retire(c sched.Completion) {
	x := l.live[c.Leader].x
	for _, t := range x.members {
		t.Start, t.Finish, t.Latency = t.sched.Start, t.sched.Finish, t.sched.Latency
		t.DOP, t.GroupSize = t.sched.MaxDOP, t.sched.GroupSize
		t.Shared = t.ID != c.Leader
	}
	x.retired = true
	if x.members[0].Table != "" {
		l.e.latch.Lock()
		x.run()
		l.e.latch.Unlock()
		close(x.done)
	}
	l.retired = append(l.retired, x)
}

// settle closes the books of every retired group whose run has finished
// and hands its tickets over (the loop forgets them): the first live
// member is billed the physical work, every other live member adopts
// the relation with the full work attributed to it (the fleet meter's
// two books record the gap), and canceled members report ErrCanceled.
// With join it first waits for each run; without, a group still running
// stays queued.
func (l *Loop) settle(join bool) []*Ticket {
	var out []*Ticket
	e := l.e
	var kept []*execution
	for _, x := range l.retired {
		if join {
			<-x.done
		} else {
			select {
			case <-x.done:
			default:
				kept = append(kept, x)
				continue
			}
		}
		var payer *Ticket
		for _, t := range x.members {
			delete(l.live, t.ID)
			switch {
			case t.Lease.Canceled():
				t.fail(exec.ErrCanceled)
			case payer == nil:
				payer = t
				if x.err != nil {
					// An execution failure is isolated like a plan failure:
					// this group reports the error, the loop keeps serving.
					t.fail(x.err)
					break
				}
				t.Rel, t.Work = x.rel, x.work
				t.Energy = e.bill(t.Work)
				l.fm.AddQuery(t.Work)
			case payer.Err != nil:
				t.Err = payer.Err
			default:
				t.Rel, t.Work, t.Energy = payer.Rel, payer.Work, payer.Energy
				l.fm.AddSharedQuery(t.Work)
			}
			t.settle()
			out = append(out, t)
		}
	}
	l.retired = kept
	return out
}

// Report snapshots the fleet's books: the virtual-time schedule's
// totals and the meter's two books.  It is O(1) in the loop's history
// and may be called repeatedly (a serving /stats endpoint): the fleet
// meter is charged per execution, never here.  Per-submission
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
