// Package sched is the serving scheduler, the "elasticity in the small"
// of §IV: a virtual-time multi-query machine (Loop) that admits queries
// into a bounded run queue, batches lookalikes into shared scans, and
// divides a global core budget across the running queries with the
// P-state degree-of-parallelism pricer (PriceDOP), so the energy-optimal
// worker count is chosen per query, and re-chosen whenever a query
// enters or leaves the machine.
package sched

import (
	"math"
	"time"

	"repro/internal/energy"
)

// Loop is the multi-query scheduler: a deterministic discrete-event
// machine over the energy model's virtual time, exposed one event at a
// time so a caller (core.Loop, under the serving front end or a replay
// driver) interleaves arrivals, virtual-time advancement, and
// completions.  Queries pass admission control into a FCFS run queue,
// lookalikes waiting there batch into shared-scan groups, and the
// P-state DOP pricer re-divides the core budget across the running set
// every time a query enters or leaves the machine.
//
// The protocol, per arrival instant:
//
//	l := NewLoop(cfg)
//	l.AdvanceTo(t)   // retire every group finishing at or before t
//	l.Offer(task)    // admission control + shared-scan batching at time t
//	l.React()        // dispatch + budget re-arbitration after arrivals
//	l.RunToIdle()    // drain the machine (end of input)
//
// AdvanceTo processes finish events in virtual-time order, re-pricing
// the survivors after each departure, which is why finishes at exactly
// time t retire before an arrival at t is offered ("finish ties beat
// arrivals").
//
// Determinism contract: every decision is a function of the offered
// tasks and the config alone — virtual time, sequence-number
// tie-breaks, and slice-ordered (never map-ordered) state.  Execution of
// the scheduled queries (core.Loop) is DOP-invariant, so relations and
// per-query counters are also invariant across core budgets; on the
// 1-CPU CI machine that invariance — never wall-clock speedup — is what
// the tests assert.  Loop is not goroutine-safe; the server serializes
// access under its own mutex.
//
// Besides the completions its event calls return, the loop reports the
// other half of a group's life: Dispatched lists the groups that took
// cores (core.Loop starts their physical execution then, so real work
// overlaps the modeled wait), and TaskSchedule.Grant is the group's live
// core grant, rewritten by every re-arbitration.
//
// The loop holds state only for tasks still in the machine: a task's
// TaskSchedule belongs to whoever Offer returned it to, so a long-lived
// server's memory and Result cost do not grow with history.
type Loop struct {
	cfg MQConfig

	queue   []*group
	running []*group
	now     float64 // virtual seconds

	started []Dispatch // dispatched since the last Dispatched call
	events  int        // dispatches + completions so far: the Order stamp

	static       energy.Joules
	fleetDyn     energy.Joules
	attrDyn      energy.Joules
	completed    int
	rejected     int
	sharedGroups int
	sharedTasks  int
}

// Completion reports one group retiring from the machine: one physical
// execution shared by the leader and its riders.
type Completion struct {
	Order   int   // position in the loop's event sequence (see Dispatch)
	Leader  int   // Seq of the group leader
	Members []int // seqs, leader first then riders in admission order
	Finish  time.Duration
}

// Dispatch reports one group taking cores.  Its membership is final:
// lookalikes batch only into groups still waiting in the queue.  Order
// stamps dispatches and completions from one counter, so a caller that
// merges the two streams by it replays the machine's events in
// virtual-time order even when one call spanned many of them.
type Dispatch struct {
	Order   int
	Leader  int
	Members []int // seqs, leader first then riders in admission order
}

// NewLoop returns an empty machine.  A non-positive core budget admits
// nothing: every offered task is rejected and virtual time never moves
// (no static energy accrues).
func NewLoop(cfg MQConfig) *Loop { return &Loop{cfg: cfg} }

// Now returns the loop's current virtual time.
func (l *Loop) Now() time.Duration { return time.Duration(l.now * float64(time.Second)) }

// Queued returns the number of waiting groups (the admission queue the
// QueueDepth bound applies to).
func (l *Loop) Queued() int { return len(l.queue) }

// Running returns the number of groups holding cores.
func (l *Loop) Running() int { return len(l.running) }

// Offer submits one task at the loop's current virtual time: shared-scan
// batching against the waiting queue first, then queue-depth admission
// control.  Rejection is synchronous — the returned schedule has
// Rejected set before Offer returns, so a server can answer 429
// immediately; its other fields settle when the task's group retires.
// Seqs must be unique among the tasks in the machine.  Call React after
// the last offer of an instant to let the dispatcher and the budget
// arbiter respond.
func (l *Loop) Offer(t Task) *TaskSchedule {
	s := &TaskSchedule{Seq: t.Seq, Leader: t.Seq, GroupSize: 1}
	if l.cfg.Budget <= 0 || !l.admit(&member{Task: t, sched: s}) {
		s.Rejected = true
		l.rejected++
	}
	return s
}

// React runs the post-arrival half of an event: retire anything already
// finished, pop FCFS groups into free run slots, and re-divide the core
// budget across the running set.  Returns the completions it retired.
func (l *Loop) React() []Completion {
	if l.cfg.Budget <= 0 {
		return nil
	}
	done := l.complete()
	l.dispatch()
	l.reallocate()
	return done
}

// AdvanceTo moves virtual time forward to t, processing every finish
// event at or before t (finishAt) in order — each departure re-prices the
// survivors before the next finish time is computed.  Returns the
// completions in retirement order.  Time never moves backward; a target
// in the past only collects already-due completions.
func (l *Loop) AdvanceTo(t time.Duration) []Completion {
	if l.cfg.Budget <= 0 {
		return nil
	}
	var done []Completion
	for len(l.running) > 0 {
		f := l.nextFinish()
		if finishAt(f) > t {
			break
		}
		l.advance(f)
		done = append(done, l.complete()...)
		l.dispatch()
		l.reallocate()
	}
	l.advance(t.Seconds())
	return done
}

// RunToIdle drains the machine: every queued and running group runs to
// completion, advancing virtual time event by event.
func (l *Loop) RunToIdle() []Completion {
	if l.cfg.Budget <= 0 {
		return nil
	}
	var done []Completion
	for len(l.running) > 0 {
		l.advance(l.nextFinish())
		done = append(done, l.complete()...)
		l.dispatch()
		l.reallocate()
	}
	return done
}

// Dispatched returns the groups dispatched since the previous call, in
// dispatch order, and forgets them.
func (l *Loop) Dispatched() []Dispatch {
	ds := l.started
	l.started = nil
	return ds
}

// NextFinish returns the virtual time of the earliest scheduled
// completion (finishAt), or false when nothing is running.
func (l *Loop) NextFinish() (time.Duration, bool) {
	if len(l.running) == 0 {
		return 0, false
	}
	return finishAt(l.nextFinish()), true
}

// finishAt is the one rounding rule from a float-seconds finish to the
// Duration NextFinish reports and AdvanceTo compares against: up to the
// nanosecond.  AdvanceTo(NextFinish()) must retire that completion, and
// any other rule parks it a sub-nanosecond past the target forever (a
// wake-pump livelock for clock-driven callers): truncating, and also
// comparing the float finish with t.Seconds(), since the product f*1e9
// can round down onto an integer (f = 3.6780000000000004e-05 s rounds
// up to 36780 ns, whose Seconds() is below f).
func finishAt(f float64) time.Duration {
	return time.Duration(math.Ceil(f * float64(time.Second)))
}

// Backlog returns the serial-equivalent CPU seconds of all admitted,
// unfinished work (queued plus running) — the quantity a server divides
// by the core budget to derive a Retry-After hint.
func (l *Loop) Backlog() time.Duration {
	s := 0.0
	for _, g := range l.queue {
		s += g.remain
	}
	for _, g := range l.running {
		s += g.remain
	}
	return time.Duration(s * float64(time.Second))
}

// Result snapshots the fleet books so far in O(1).  Makespan is the
// loop's current virtual time.
func (l *Loop) Result() *MQResult {
	return &MQResult{
		Completed:         l.completed,
		Rejected:          l.rejected,
		Makespan:          l.Now(),
		FleetDynamic:      l.fleetDyn,
		AttributedDynamic: l.attrDyn,
		Static:            l.static,
		SharedGroups:      l.sharedGroups,
		SharedTasks:       l.sharedTasks,
	}
}

// nextFinish returns the earliest finish time over the running set
// (callers guarantee it is non-empty).
func (l *Loop) nextFinish() float64 {
	f := -1.0
	for _, g := range l.running {
		t := l.now + g.remain*amdahl(g.dop)
		if f < 0 || t < f {
			f = t
		}
	}
	return f
}

// advance integrates running progress and static power from now to t.
func (l *Loop) advance(t float64) {
	dt := t - l.now
	if dt <= 0 {
		return
	}
	m, p := l.cfg.Model, l.cfg.PState
	active := 0
	for _, g := range l.running {
		g.remain -= dt / amdahl(g.dop)
		if g.remain < 0 {
			g.remain = 0
		}
		active += g.dop
	}
	idle := l.cfg.Budget - active
	if idle < 0 {
		idle = 0
	}
	watts := 0.0
	for _, g := range l.running {
		watts += float64(p.Active) * float64(g.dop)
	}
	watts += float64(m.Core.Idle.Power) * float64(idle)
	// The same platform floor PriceDOP amortizes: billing less here
	// than the pricer assumed would overstate the arbiter's savings.
	watts += float64(m.DRAMStaticPerGB)*l.cfg.MemGB + float64(m.SSDIdle) + float64(m.LinkIdle)
	l.static += energy.Joules(watts * dt)
	l.now = t
}

// admit handles one arrival: batching first, then queue-depth admission
// control (false = rejected).  Admission happens at arrival, before the
// dispatcher reacts, so a burst larger than the queue rejects its tail
// even if cores are free.
func (l *Loop) admit(t *member) bool {
	if l.cfg.BatchScans && t.ShareKey != "" {
		for _, g := range l.queue {
			if g.leader.ShareKey == t.ShareKey {
				g.members = append(g.members, t)
				return true
			}
		}
	}
	if l.cfg.QueueDepth > 0 && len(l.queue) >= l.cfg.QueueDepth {
		return false
	}
	m, p := l.cfg.Model, l.cfg.PState
	cpu := m.CPUTime(t.Work, p).Seconds()
	l.queue = append(l.queue, &group{leader: t, members: []*member{t},
		arrival: t.Arrival, cpu1: cpu, remain: cpu})
	return true
}

// dispatch pops FCFS groups while run slots remain (one slot total in
// naive mode); the caller re-prices afterwards.  Foreground groups
// dispatch strictly before background ones (FCFS within each class): a
// queued background merge is passed over while any user query waits,
// and runs only once the foreground queue is empty.
func (l *Loop) dispatch() {
	slots := l.cfg.Budget
	if !l.cfg.Arbitrate {
		slots = 1
	}
	for len(l.queue) > 0 && len(l.running) < slots {
		pick := -1
		for i, g := range l.queue {
			if !g.leader.Background {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0 // only background work left
		}
		g := l.queue[pick]
		l.queue = append(l.queue[:pick], l.queue[pick+1:]...)
		g.start = time.Duration(l.now * float64(time.Second))
		l.running = append(l.running, g)
		l.started = append(l.started, Dispatch{Order: l.events, Leader: g.leader.Seq, Members: g.seqs()})
		l.events++
	}
}

// reallocate re-divides the budget across the running set — called
// whenever a query enters or leaves the machine.  Arbitrated mode
// waterfills: every group holds one core, then spare cores go one at
// a time to the group whose goal gains the most from the marginal
// core (ties to the earliest seq); min-energy groups stop accepting
// cores at their interior optimum, so spare cores can stay idle even
// with queries running — that is the energy-proportional behavior.
func (l *Loop) reallocate() {
	if len(l.running) == 0 {
		return
	}
	if !l.cfg.Arbitrate {
		for _, g := range l.running {
			g.grant(g.cap(l.cfg.Budget))
		}
		return
	}
	m, p := l.cfg.Model, l.cfg.PState
	spare := l.cfg.Budget
	for _, g := range l.running {
		g.dop = 1
		spare--
	}
	type cand struct {
		g      *group
		points []DOPPoint // memoized sweep of remaining work
	}
	cands := make([]cand, len(l.running))
	for i, g := range l.running {
		cands[i] = cand{g: g, points: SweepDOP(m, g.remainWork(), p, g.cap(l.cfg.Budget), l.cfg.MemGB)}
	}
	// Gains are RELATIVE improvements of each group's own objective
	// (unit-free), so a min-time query's seconds and a min-energy
	// query's joules are commensurable in the auction; positive
	// relative gain iff the marginal core helps at all.
	better := func(goal Goal, a, b DOPPoint) float64 {
		frac := func(next, cur float64) float64 {
			if cur <= 0 {
				return 0
			}
			return (cur - next) / cur
		}
		switch goal {
		case GoalEnergy:
			return frac(float64(a.Energy), float64(b.Energy))
		case GoalEDP:
			return frac(a.EDP(), b.EDP())
		default:
			return frac(a.Time.Seconds(), b.Time.Seconds())
		}
	}
	for spare > 0 {
		bestGain, bestIdx := 0.0, -1
		for i := range cands {
			g := cands[i].g
			if g.dop >= len(cands[i].points) {
				continue
			}
			// points[d-1] prices DOP d; gain of moving d -> d+1.
			gain := better(g.leader.Goal, cands[i].points[g.dop], cands[i].points[g.dop-1])
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break // no group profits from another core
		}
		cands[bestIdx].g.dop++
		spare--
	}
	for _, g := range l.running {
		g.grant(g.dop)
	}
}

// complete retires every running group whose remaining work is gone.
// The threshold is a nanosecond of serial CPU time — below Duration
// resolution, and far above the float residue advance() can leave on
// a finish event (so the loop always makes progress).
func (l *Loop) complete() []Completion {
	m, p := l.cfg.Model, l.cfg.PState
	kept := l.running[:0]
	var done []Completion
	for _, g := range l.running {
		if g.remain > 1e-9 {
			kept = append(kept, g)
			continue
		}
		finish := time.Duration(l.now * float64(time.Second))
		dynOne := m.DynamicEnergy(g.leader.Work, p).Total()
		l.fleetDyn += dynOne
		l.attrDyn += dynOne * energy.Joules(len(g.members))
		if len(g.members) > 1 {
			l.sharedGroups++
			l.sharedTasks += len(g.members) - 1
		}
		c := Completion{Order: l.events, Leader: g.leader.Seq, Finish: finish, Members: g.seqs()}
		l.events++
		for _, t := range g.members {
			s := t.sched
			s.Leader = g.leader.Seq
			s.GroupSize = len(g.members)
			s.Start = g.start
			s.Finish = finish
			s.Latency = finish - t.Arrival
			s.MaxDOP = g.maxDOP
			l.completed++
		}
		done = append(done, c)
	}
	l.running = kept
	return done
}
