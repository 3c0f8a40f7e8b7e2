package core

import (
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sched"
)

// Multi-query serving: a Loop runs queries through the energy-aware
// multi-query scheduler (sched.Loop) — admission control,
// shared-core-budget arbitration by the P-state DOP pricer, and
// shared-scan batching of lookalike queries — executing each scheduled
// group once and handing every member its relation.  Loop.Replay is the
// open-loop backlog driver over it.
//
// Determinism contract (what E21 and the -race tests assert on the
// 1-CPU CI box): for a fixed submission list, each query's relation and
// attributed counters are byte-identical at every core budget and every
// batching setting, because plans are DOP-invariant and attribution
// never depends on group membership.  What changes with the budget and
// batching is only the fleet's schedule and physical energy — the
// quantities the scheduler exists to improve.

// Submission is one query of an open-loop backlog (see Loop.Replay).
type Submission struct {
	Arrival time.Duration // open-loop arrival offset (virtual time)
	Q       *opt.Query
	// Objective the query is scheduled under (its scheduler goal).
	Objective opt.Objective
}

// SchedulerConfig parameterizes NewLoop.
type SchedulerConfig struct {
	Budget     int  // global core budget shared by all admitted queries
	QueueDepth int  // max waiting query groups; 0 = unbounded
	BatchScans bool // shared-scan batching of lookalike queued queries
	// Arbitrate re-divides the budget across running queries with the
	// P-state DOP pricer; false is the naive all-queries-at-max-DOP
	// FCFS baseline.
	Arbitrate bool
}

// SubmissionResult is one query's outcome.
type SubmissionResult struct {
	ID       int
	Rejected bool
	// Err is set when the submission failed to plan (unknown table or
	// column, bad predicate type — Rejected is also set) or failed
	// during execution (Rel stays nil).  Either failure is isolated to
	// this submission and its shared-scan riders — the rest of the
	// backlog still drains.
	Err       error
	Rel       *exec.Relation
	Work      energy.Counters  // attributed (standalone) work counters
	Energy    energy.Breakdown // modeled per-query energy of that work
	Objective opt.Objective    // objective the query was scheduled under
	Start     time.Duration    // virtual dispatch time
	Finish    time.Duration
	Latency   time.Duration // includes queueing delay
	DOP       int           // widest core grant the query's group held
	GroupSize int           // lookalikes sharing the execution (1 = alone)
	Shared    bool          // true when another query's execution served this one
	PlanInfo  *opt.PlanInfo
}

// ScheduleReport is a loop's fleet books (Loop.Report); Replay adds the
// per-submission view of the backlog it drove.
type ScheduleReport struct {
	// Results, AvgLatency and P95Latency (over admitted submissions) are
	// filled by Replay only: a loop does not keep settled tickets.
	Results    []SubmissionResult // in submission order
	AvgLatency time.Duration
	P95Latency time.Duration
	Fleet      *sched.MQResult // the virtual-time schedule's totals
	// Attributed/Physical are the fleet meter's two books over the
	// MEASURED counters: per-query bills vs work the machine performed
	// (shared groups charged once).
	Attributed energy.Counters
	Physical   energy.Counters
	// FleetDynamic prices the physical book; with Fleet.Static it forms
	// the fleet energy bill.  SavedDynamic is the batching saving.
	FleetDynamic energy.Joules
	SavedDynamic energy.Joules
}

// FleetEnergy returns measured dynamic plus scheduled static energy.
func (r *ScheduleReport) FleetEnergy() energy.Joules { return r.FleetDynamic + r.Fleet.Static }

// EnergyPerQuery divides the fleet bill over completed queries.
func (r *ScheduleReport) EnergyPerQuery() energy.Joules {
	if r.Fleet.Completed == 0 {
		return 0
	}
	return r.FleetEnergy() / energy.Joules(r.Fleet.Completed)
}

// goalOf maps optimizer objectives onto scheduler goals.
func goalOf(o opt.Objective) sched.Goal {
	switch o {
	case opt.MinEnergy:
		return sched.GoalEnergy
	case opt.MinEDP:
		return sched.GoalEDP
	default:
		return sched.GoalTime
	}
}

// residentGB sums the catalog's table footprints, the platform DRAM the
// background-power terms integrate over.  The sum stays in integer
// bytes until the end: Catalog.Tables ranges over a map, and a float
// accumulated in map order would differ in the last ulp across runs —
// enough to flip a near-tie in the scheduler's marginal-core pricing
// and break the determinism contract.
func (e *Engine) residentGB() float64 {
	var bytes uint64
	for _, name := range e.cat.Tables() {
		if st, err := e.cat.Lookup(name); err == nil {
			bytes += st.Bytes()
		}
	}
	return float64(bytes) / 1e9
}

// Replay drives an open-loop backlog through the loop and drains it —
// the arrival-replay driver behind E21 and eimdb-bench -replay.
// Submissions are offered in arrival order (ties in slice order) with
// the protocol every driver of the loop follows: advance to each
// distinct arrival instant (finishes due at or before it retire first),
// offer every submission of that instant, react once.  The report's
// Results are in slice order, assembled from the tickets the offers
// returned.
func (l *Loop) Replay(subs []Submission) *ScheduleReport {
	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return subs[order[i]].Arrival < subs[order[j]].Arrival })
	tickets := make([]*Ticket, len(subs))
	for ai := 0; ai < len(order); {
		at := subs[order[ai]].Arrival
		l.AdvanceTo(at)
		for ; ai < len(order) && subs[order[ai]].Arrival == at; ai++ {
			s := subs[order[ai]]
			tickets[order[ai]] = l.Offer(at, s.Q, s.Objective)
		}
		l.React()
	}
	l.RunToIdle()

	rep := l.Report()
	rep.Results = make([]SubmissionResult, len(subs))
	var lats []time.Duration
	for i, t := range tickets {
		rep.Results[i] = t.SubmissionResult
		if !t.Rejected {
			lats = append(lats, t.Latency)
		}
	}
	rep.AvgLatency, rep.P95Latency = energy.LatencySummary(lats)
	return rep
}
