package sched

import (
	"time"

	"repro/internal/energy"
)

// The multi-query scheduler's vocabulary: the tasks Loop is offered, its
// configuration, and what it reports.  Where Simulate (E1/E5) prices
// whole machines under fixed policies and PriceDOP prices one query's
// worker count, Loop arbitrates a shared global core budget across
// *concurrent* queries — the regime where energy-proportional scheduling
// actually pays off.

// Goal is a per-query scheduling objective, mirroring the optimizer
// objectives without importing them: it decides whether a marginal core
// is worth taking during budget arbitration.
type Goal int

// The per-query goals.
const (
	// GoalTime takes every core that shortens the query (races to idle).
	GoalTime Goal = iota
	// GoalEnergy takes cores only while the P-state model says the
	// shorter wall clock amortizes more background power than the extra
	// active cores burn — the interior energy optimum of PriceDOP.
	GoalEnergy
	// GoalEDP balances the two via the energy-delay product.
	GoalEDP
)

// String names the goal.
func (g Goal) String() string {
	switch g {
	case GoalTime:
		return "min-time"
	case GoalEnergy:
		return "min-energy"
	case GoalEDP:
		return "min-edp"
	}
	return "goal?"
}

// Task is one query submitted to the multi-query scheduler.
type Task struct {
	Seq     int           // submission order; the deterministic tie-break
	Arrival time.Duration // open-loop arrival offset (virtual time)
	Work    energy.Counters
	// ShareKey groups lookalike queries for shared-scan batching: tasks
	// with equal non-empty keys waiting in the queue together execute as
	// one physical group.  core derives it from the canonical plan
	// signature; empty disables sharing for the task.
	ShareKey string
	Goal     Goal
	// MaxDOP caps the task's core grant (0 = the whole budget).
	MaxDOP int
	// Background marks housekeeping work (the delta merge) that must
	// yield to user queries: the dispatcher passes over queued background
	// groups while any foreground group waits, so background work runs
	// only when the foreground queue is drained — raced to idle on an
	// empty machine, deferred under load.  Later foreground arrivals
	// overtake a waiting background group.
	Background bool
}

// MQConfig parameterizes a Loop.
type MQConfig struct {
	// Budget is the global core budget the running set shares.  Zero or
	// negative admits nothing: every task is rejected.
	Budget int
	// QueueDepth bounds the admission queue (waiting groups, not group
	// members); arrivals past it are rejected.  Zero means unbounded.
	QueueDepth int
	// BatchScans enables shared-scan grouping of queued lookalikes.
	BatchScans bool
	// Arbitrate enables per-event budget re-division by the DOP pricer.
	// When false the scheduler degenerates to the naive baseline E21
	// compares against: one query at a time, granted the full budget
	// (all-queries-at-max-DOP FCFS).
	Arbitrate bool

	Model  *energy.Model
	PState energy.PState
	MemGB  float64 // resident DRAM for platform background power
}

// TaskSchedule reports how one task fared.
type TaskSchedule struct {
	Seq      int
	Rejected bool
	// Leader is the Seq of the group leader whose physical execution
	// this task shares (== Seq when the task ran alone or led).
	Leader    int
	GroupSize int
	Start     time.Duration // dispatch time (virtual)
	Finish    time.Duration
	Latency   time.Duration // Finish - Arrival
	MaxDOP    int           // widest core grant the task's group held
	// Grant is the group's core grant right now: zero until dispatch,
	// rewritten by every re-arbitration while the group runs (the width
	// core.Loop resizes the running query's lease to), and the last grant
	// held once the group has retired.
	Grant int
}

// MQResult is the fleet's books over everything a Loop has scheduled.
type MQResult struct {
	Completed int
	Rejected  int
	Makespan  time.Duration
	// FleetDynamic is the dynamic energy physically spent: shared-scan
	// groups charge their work once.  AttributedDynamic is the sum of
	// every task's standalone dynamic energy — the fleet's bill had no
	// sharing happened; the gap is the batching saving.
	FleetDynamic      energy.Joules
	AttributedDynamic energy.Joules
	// Static integrates core active/idle power plus the DRAM platform
	// floor over the makespan.
	Static energy.Joules
	// SharedGroups counts groups that batched more than one task;
	// SharedTasks counts the riders (group members beyond the leader).
	SharedGroups int
	SharedTasks  int
}

// FleetEnergy returns the physical fleet energy of the schedule.
func (r *MQResult) FleetEnergy() energy.Joules { return r.FleetDynamic + r.Static }

// EnergyPerQuery returns fleet energy divided by completed queries.
func (r *MQResult) EnergyPerQuery() energy.Joules {
	if r.Completed == 0 {
		return 0
	}
	return r.FleetEnergy() / energy.Joules(r.Completed)
}

// member is one admitted task with the schedule record its offerer holds.
type member struct {
	Task
	sched *TaskSchedule
}

// group is the scheduler's unit of dispatch: one or more lookalike tasks
// sharing a single physical execution.
type group struct {
	leader  *member
	members []*member // leader first, then riders in admission order
	arrival time.Duration

	cpu1   float64 // full serial CPU seconds of the work at the P-state
	remain float64 // remaining serial-equivalent CPU seconds
	dop    int
	maxDOP int // widest grant held, for the report
	start  time.Duration
}

// seqs lists the members' seqs, leader first.
func (g *group) seqs() []int {
	out := make([]int, len(g.members))
	for i, t := range g.members {
		out[i] = t.Seq
	}
	return out
}

// grant sets the group's core grant and publishes it on every member's
// schedule record.
func (g *group) grant(dop int) {
	g.dop = dop
	if dop > g.maxDOP {
		g.maxDOP = dop
	}
	for _, t := range g.members {
		t.sched.Grant = dop
	}
}

// cap returns the group's core-grant ceiling under the budget.
func (g *group) cap(budget int) int {
	c := budget
	if g.leader.MaxDOP > 0 && g.leader.MaxDOP < c {
		c = g.leader.MaxDOP
	}
	if c < 1 {
		c = 1
	}
	return c
}

// remainWork scales the group's counters to its remaining fraction, the
// input to marginal re-pricing.
func (g *group) remainWork() energy.Counters {
	if g.cpu1 <= 0 {
		return g.leader.Work
	}
	f := g.remain / g.cpu1
	if f > 1 {
		f = 1
	}
	if f < 0 {
		f = 0
	}
	return g.leader.Work.Scale(f)
}
