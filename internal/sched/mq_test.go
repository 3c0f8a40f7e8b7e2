package sched

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/synth"
)

// mqWork is a mid-size query profile: ~2ms of serial CPU at 3GHz.
func mqWork() energy.Counters {
	return energy.Counters{Instructions: 9_000_000, BytesReadDRAM: 4 << 20, TuplesIn: 500_000}
}

func mqConfig(budget int) MQConfig {
	m := energy.DefaultModel()
	return MQConfig{
		Budget:    budget,
		Arbitrate: true,
		Model:     m,
		PState:    m.Core.MaxPState(),
		MemGB:     0.03,
	}
}

// poissonTasks builds an open-loop task list from the workload package's
// arrival process.
func poissonTasks(seed uint64, n int, rate float64, goal Goal, shareEvery int) []Task {
	gaps := synth.Poisson(seed, n, rate)
	tasks := make([]Task, n)
	var at time.Duration
	for i, g := range gaps {
		at += g
		tasks[i] = Task{Seq: i, Arrival: at, Work: mqWork(), Goal: goal}
		if shareEvery > 0 {
			// A few hot signatures, round-robin: the storm pattern.
			tasks[i].ShareKey = string(rune('a' + i%shareEvery))
		}
	}
	return tasks
}

// mqRun is one task list's schedule: the fleet books plus every task's
// record, by submission order.
type mqRun struct {
	*MQResult
	Tasks []TaskSchedule
}

// runTasks replays a task list through a Loop the way every driver
// does: by (Arrival, Seq), advance to each distinct arrival instant
// (finishes due at or before it retire first), offer every task of that
// instant, react once, and drain the machine when arrivals run out.
func runTasks(cfg MQConfig, tasks []Task) mqRun {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := tasks[order[i]], tasks[order[j]]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.Seq < b.Seq
	})
	l := NewLoop(cfg)
	scheds := make([]*TaskSchedule, len(tasks))
	for ai := 0; ai < len(order); {
		at := tasks[order[ai]].Arrival
		l.AdvanceTo(at)
		for ; ai < len(order) && tasks[order[ai]].Arrival == at; ai++ {
			scheds[order[ai]] = l.Offer(tasks[order[ai]])
		}
		l.React()
	}
	l.RunToIdle()
	run := mqRun{MQResult: l.Result(), Tasks: make([]TaskSchedule, len(tasks))}
	for i, s := range scheds {
		run.Tasks[i] = *s
	}
	return run
}

// TestMQZeroBudgetRejectsAll pins the zero-core admission edge: nothing
// can run, so everything is rejected and the result stays well-formed.
func TestMQZeroBudgetRejectsAll(t *testing.T) {
	tasks := poissonTasks(1, 8, 500, GoalTime, 0)
	res := runTasks(mqConfig(0), tasks)
	if res.Rejected != len(tasks) || res.Completed != 0 {
		t.Fatalf("zero budget: want all rejected, got completed=%d rejected=%d", res.Completed, res.Rejected)
	}
	for _, s := range res.Tasks {
		if !s.Rejected {
			t.Fatalf("task %d not rejected under zero budget", s.Seq)
		}
	}
	if res.FleetEnergy() != 0 {
		t.Fatalf("zero budget burned energy: %v", res.FleetEnergy())
	}
}

// TestMQSingleQueryTakesAllCores: a lone min-time query must be granted
// the whole budget (every marginal core shortens it).
func TestMQSingleQueryTakesAllCores(t *testing.T) {
	tasks := []Task{{Seq: 0, Work: mqWork(), Goal: GoalTime}}
	res := runTasks(mqConfig(8), tasks)
	if res.Completed != 1 {
		t.Fatalf("completed=%d", res.Completed)
	}
	if got := res.Tasks[0].MaxDOP; got != 8 {
		t.Fatalf("min-time query alone on 8 cores must get all 8, got %d", got)
	}
}

// TestMQEnergyGoalInteriorDOP: a lone min-energy query must stop taking
// cores at the P-state model's interior optimum — spare cores stay idle
// even though the machine is otherwise empty.
func TestMQEnergyGoalInteriorDOP(t *testing.T) {
	tasks := []Task{{Seq: 0, Work: mqWork(), Goal: GoalEnergy}}
	res := runTasks(mqConfig(8), tasks)
	got := res.Tasks[0].MaxDOP
	if got <= 1 || got >= 8 {
		t.Fatalf("min-energy optimum must be interior (1 < dop < 8), got %d", got)
	}
	// And it must agree with the standalone pricer.
	cfg := mqConfig(8)
	pts := SweepDOP(cfg.Model, mqWork(), cfg.PState, 8, cfg.MemGB)
	want := bestDOP(pts, func(a, b DOPPoint) bool { return a.Energy < b.Energy }).DOP
	if got != want {
		t.Fatalf("arbitration found dop %d, pricer says %d", got, want)
	}
}

// TestMQBurstBeyondQueueDepth: a same-instant burst larger than the
// queue rejects its tail (admission happens at arrival, before the
// dispatcher reacts) and never loses or duplicates a task.
func TestMQBurstBeyondQueueDepth(t *testing.T) {
	var tasks []Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, Task{Seq: i, Work: mqWork(), Goal: GoalTime})
	}
	cfg := mqConfig(2)
	cfg.QueueDepth = 4
	res := runTasks(cfg, tasks)
	if res.Rejected != 6 || res.Completed != 4 {
		t.Fatalf("depth-4 burst of 10: want 4 completed / 6 rejected, got %d / %d", res.Completed, res.Rejected)
	}
	for _, s := range res.Tasks {
		if wantRej := s.Seq >= 4; s.Rejected != wantRej {
			t.Fatalf("task %d: rejected=%v, want %v (FCFS admission)", s.Seq, s.Rejected, wantRej)
		}
	}
}

// TestMQRepricingOnEntry: when a short query arrives while a long one
// holds the machine, the budget is re-divided — the long query keeps
// the lion's share (equal relative min-time gains tie-break to the
// earlier seq), and the short one runs at the leftovers instead of
// waiting behind it.
func TestMQRepricingOnEntry(t *testing.T) {
	long := mqWork().Scale(10)
	tasks := []Task{
		{Seq: 0, Work: long, Goal: GoalTime},
		{Seq: 1, Arrival: 100 * time.Microsecond, Work: mqWork(), Goal: GoalTime},
	}
	res := runTasks(mqConfig(4), tasks)
	if res.Completed != 2 {
		t.Fatalf("completed=%d", res.Completed)
	}
	if res.Tasks[0].MaxDOP != 4 {
		t.Fatalf("long query must hold the full budget while alone, got %d", res.Tasks[0].MaxDOP)
	}
	if res.Tasks[1].MaxDOP >= 4 {
		t.Fatalf("short query arriving into a busy machine cannot get the whole budget, got %d", res.Tasks[1].MaxDOP)
	}
	if res.Tasks[1].Finish >= res.Tasks[0].Finish {
		t.Fatal("short query should finish while the long one still runs (concurrency, not FCFS serialization)")
	}
}

// TestMQSharedScanBatching: under a hot-key storm, batching executes
// each signature group once — fleet dynamic energy strictly below the
// attributed (no-sharing) bill — while disabling it leaves no gap.
func TestMQSharedScanBatching(t *testing.T) {
	tasks := poissonTasks(7, 60, 20_000, GoalEnergy, 3)
	cfg := mqConfig(4)
	cfg.BatchScans = true
	batched := runTasks(cfg, tasks)
	cfg.BatchScans = false
	solo := runTasks(cfg, tasks)

	if batched.SharedGroups == 0 || batched.SharedTasks == 0 {
		t.Fatalf("storm formed no shared groups: %+v", batched)
	}
	if batched.FleetDynamic >= batched.AttributedDynamic {
		t.Fatalf("sharing must cut physical dynamic energy: fleet=%v attributed=%v",
			batched.FleetDynamic, batched.AttributedDynamic)
	}
	if solo.SharedGroups != 0 || solo.FleetDynamic != solo.AttributedDynamic {
		t.Fatalf("batching disabled must not share: %+v", solo)
	}
	if batched.Completed != len(tasks) || solo.Completed != len(tasks) {
		t.Fatalf("lost tasks: %d / %d", batched.Completed, solo.Completed)
	}
	perQuery := func(r *MQResult) energy.Joules { return r.FleetEnergy() / energy.Joules(r.Completed) }
	if perQuery(batched.MQResult) >= perQuery(solo.MQResult) {
		t.Fatalf("batched fleet J/query must be lower: %v vs %v", perQuery(batched.MQResult), perQuery(solo.MQResult))
	}
}

// TestMQNaiveBaselineSerializes: with arbitration off (the E21 naive
// arm), queries run one at a time at the full budget.
func TestMQNaiveBaselineSerializes(t *testing.T) {
	tasks := poissonTasks(3, 10, 50_000, GoalTime, 0)
	cfg := mqConfig(4)
	cfg.Arbitrate = false
	res := runTasks(cfg, tasks)
	if res.Completed != len(tasks) {
		t.Fatalf("completed=%d", res.Completed)
	}
	for i, s := range res.Tasks {
		if s.MaxDOP != 4 {
			t.Fatalf("naive mode must grant the full budget, task %d got %d", i, s.MaxDOP)
		}
		if i > 0 && s.Start < res.Tasks[i-1].Finish {
			t.Fatalf("naive mode must serialize: task %d started %v before task %d finished %v",
				i, s.Start, i-1, res.Tasks[i-1].Finish)
		}
	}
}

// TestMQDeterministic: the schedule is a pure function of tasks+config.
func TestMQDeterministic(t *testing.T) {
	for _, arb := range []bool{true, false} {
		cfg := mqConfig(4)
		cfg.Arbitrate = arb
		cfg.BatchScans = true
		cfg.QueueDepth = 8
		a := runTasks(cfg, poissonTasks(11, 80, 5000, GoalEDP, 4))
		b := runTasks(cfg, poissonTasks(11, 80, 5000, GoalEDP, 4))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("schedule not deterministic (arbitrate=%v)", arb)
		}
	}
}

// TestMQLatencyAccounting: a queued task's latency includes its wait.
func TestMQLatencyAccounting(t *testing.T) {
	tasks := []Task{
		{Seq: 0, Work: mqWork(), Goal: GoalTime},
		{Seq: 1, Work: mqWork(), Goal: GoalTime},
	}
	res := runTasks(mqConfig(1), tasks)
	a, b := res.Tasks[0], res.Tasks[1]
	if b.Start < a.Finish {
		t.Fatal("budget 1 must serialize")
	}
	if b.Latency <= a.Latency {
		t.Fatalf("second task must carry queueing delay: %v vs %v", b.Latency, a.Latency)
	}
	if res.Makespan != b.Finish {
		t.Fatalf("makespan %v != last finish %v", res.Makespan, b.Finish)
	}
}
