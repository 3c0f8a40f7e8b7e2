package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

// loopStorm builds an open-loop storm of point-lookup-shaped tasks with
// strictly increasing arrivals (Poisson gaps are continuous, so ties
// never happen at Duration resolution in practice).
func loopStorm(n int, qps float64) []Task {
	gaps := synth.Poisson(11, n, qps)
	rng := workload.NewRNG(7)
	at := time.Duration(0)
	tasks := make([]Task, n)
	for i := range tasks {
		at += gaps[i]
		w := energy.Counters{Instructions: 4_000_000 + rng.Uint64()%2_000_000,
			BytesReadDRAM: 2_000_000, TuplesIn: 50_000, TuplesOut: 1}
		key := ""
		if i%3 == 0 {
			key = "k0" // every third task is a lookalike
		}
		tasks[i] = Task{Seq: i, Arrival: at, Work: w, ShareKey: key, Goal: GoalEnergy}
	}
	return tasks
}

func loopCfg(budget int, batch bool) MQConfig {
	m := energy.DefaultModel()
	return MQConfig{Budget: budget, QueueDepth: 8, BatchScans: batch,
		Arbitrate: true, Model: m, PState: m.Core.MaxPState(), MemGB: 4}
}

// TestLoopCompletionsAccountForEveryTask checks the Completion stream:
// every admitted task appears in exactly one completion, leaders first,
// and rejected tasks never appear.
func TestLoopCompletionsAccountForEveryTask(t *testing.T) {
	cfg := loopCfg(1, true)
	cfg.QueueDepth = 2
	tasks := loopStorm(30, 20000) // fast arrivals force rejections
	l := NewLoop(cfg)
	var done []Completion
	rejected := 0
	scheds := make(map[int]*TaskSchedule)
	for _, task := range tasks {
		done = append(done, l.AdvanceTo(task.Arrival)...)
		s := l.Offer(task)
		scheds[task.Seq] = s
		if s.Rejected {
			rejected++
		}
		done = append(done, l.React()...)
	}
	done = append(done, l.RunToIdle()...)

	seen := make(map[int]bool)
	for _, c := range done {
		if len(c.Members) == 0 || c.Members[0] != c.Leader {
			t.Fatalf("completion %+v: leader must head the member list", c)
		}
		for _, seq := range c.Members {
			if seen[seq] {
				t.Fatalf("seq %d completed twice", seq)
			}
			seen[seq] = true
			if scheds[seq].Rejected {
				t.Fatalf("seq %d both rejected and completed", seq)
			}
		}
	}
	if rejected == 0 {
		t.Fatalf("storm was meant to overflow QueueDepth=2")
	}
	if len(seen)+rejected != len(tasks) {
		t.Fatalf("completions (%d) + rejections (%d) != tasks (%d)", len(seen), rejected, len(tasks))
	}
	res := l.Result()
	if res.Completed != len(seen) || res.Rejected != rejected {
		t.Fatalf("result books disagree: %d/%d vs %d/%d", res.Completed, res.Rejected, len(seen), rejected)
	}
}

// TestLoopZeroBudgetRejectsWithoutTime pins the zero-budget contract on
// the incremental surface: every offer rejects synchronously, virtual
// time never moves, and no static energy accrues.
func TestLoopZeroBudgetRejectsWithoutTime(t *testing.T) {
	cfg := loopCfg(0, true)
	l := NewLoop(cfg)
	for i, task := range loopStorm(5, 100) {
		l.AdvanceTo(task.Arrival)
		if s := l.Offer(task); !s.Rejected {
			t.Fatalf("task %d admitted on a zero-core machine", i)
		}
		l.React()
	}
	l.RunToIdle()
	if got := l.Now(); got != 0 {
		t.Fatalf("virtual time moved to %v with no admitted work", got)
	}
	if res := l.Result(); res.FleetEnergy() != 0 {
		t.Fatalf("zero-budget machine accrued %v J", res.FleetEnergy())
	}
}

// TestLoopNextFinishReachable pins the clock-driver contract: advancing
// exactly to NextFinish retires at least one completion.  Regression
// for the truncation livelock — a finish rounded DOWN to the nanosecond
// lands a sub-nanosecond before the true completion, so a server waking
// at it would re-arm the same wake forever.
func TestLoopNextFinishReachable(t *testing.T) {
	l := NewLoop(loopCfg(2, true))
	for _, task := range loopStorm(12, 500) {
		l.AdvanceTo(task.Arrival)
		l.Offer(task)
		l.React()
	}
	steps := 0
	for {
		f, ok := l.NextFinish()
		if !ok {
			break
		}
		if len(l.AdvanceTo(f)) == 0 {
			t.Fatalf("step %d: AdvanceTo(NextFinish()=%v) retired nothing", steps, f)
		}
		if steps++; steps > 1000 {
			t.Fatalf("machine never drained")
		}
	}
	if b := l.Backlog(); b != 0 {
		t.Fatalf("backlog %v after draining by NextFinish steps", b)
	}
}

// TestLoopAdvanceToNextFinishRetires is the clock-driver property over
// random machines: whatever the arrivals, works, DOP caps, budgets and
// arbitration, AdvanceTo(NextFinish()) retires at least one group.  The
// first case pins a finish whose nanosecond product rounds onto an
// integer (3.6780000000000004e-05 s × 1e9 = 36780.0): compared as float
// seconds against the rounded-up target, it stayed a sub-nanosecond in
// the future forever.
func TestLoopAdvanceToNextFinishRetires(t *testing.T) {
	const f = 3.6780000000000004e-05
	l := NewLoop(loopCfg(1, false))
	l.Offer(Task{Seq: 0, Work: energy.Counters{Instructions: 1000}})
	l.React()
	l.running[0].remain = f
	if l.nextFinish() != f {
		t.Fatalf("seed finish %v, want %v", l.nextFinish(), f)
	}
	if d, _ := l.NextFinish(); len(l.AdvanceTo(d)) != 1 {
		t.Fatalf("AdvanceTo(%v) did not retire the group due at %v s", d, f)
	}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := workload.NewRNG(seed)
		cfg := loopCfg(1+rng.Intn(8), rng.Intn(2) == 0)
		cfg.Arbitrate = rng.Intn(4) != 0
		l := NewLoop(cfg)
		var at time.Duration
		for i := 0; i < 40; i++ {
			at += time.Duration(rng.ExpFloat64() * float64(20*time.Microsecond))
			l.AdvanceTo(at)
			l.Offer(Task{Seq: i, Arrival: at, Goal: Goal(rng.Intn(3)), MaxDOP: rng.Intn(5),
				ShareKey: fmt.Sprint(rng.Intn(3)),
				Work:     energy.Counters{Instructions: 1 + rng.Uint64()%4_000_000, BytesReadDRAM: rng.Uint64() % 2_000_000}})
			l.React()
			if rng.Intn(3) > 0 {
				continue
			}
			if d, ok := l.NextFinish(); ok && len(l.AdvanceTo(d)) == 0 {
				t.Fatalf("seed %d arrival %d: AdvanceTo(NextFinish()=%v) retired nothing", seed, i, d)
			}
		}
		for steps := 0; ; steps++ {
			d, ok := l.NextFinish()
			if !ok {
				break
			}
			if len(l.AdvanceTo(d)) == 0 {
				t.Fatalf("seed %d drain step %d: AdvanceTo(NextFinish()=%v) retired nothing", seed, steps, d)
			}
		}
	}
}

// TestLoopBacklogDrains checks the Retry-After input: backlog grows on
// offers, shrinks through completions, and hits zero at idle.
func TestLoopBacklogDrains(t *testing.T) {
	cfg := loopCfg(1, false)
	tasks := loopStorm(6, 1000)
	l := NewLoop(cfg)
	var peak time.Duration
	for _, task := range tasks {
		l.AdvanceTo(task.Arrival)
		l.Offer(task)
		l.React()
		if b := l.Backlog(); b > peak {
			peak = b
		}
	}
	if peak == 0 {
		t.Fatalf("backlog never grew under a 1-core burst")
	}
	l.RunToIdle()
	if b := l.Backlog(); b != 0 {
		t.Fatalf("backlog %v after RunToIdle", b)
	}
	if _, ok := l.NextFinish(); ok {
		t.Fatalf("NextFinish reported work on an idle machine")
	}
}
