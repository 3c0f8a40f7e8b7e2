package robust_test

// Package robust lives in internal/experiments/robust, beside E8, the
// experiment that owns it; its tests keep this import path.

import (
	"testing"
	"time"

	"repro/internal/energy"
	. "repro/internal/experiments/robust"
)

func testQuery(stages int) Query {
	return Query{
		Stages:    stages,
		StageTime: 100 * time.Millisecond,
		StageWork: energy.Counters{Instructions: 1_000_000, BytesReadDRAM: 1 << 20},
		CkptTime:  20 * time.Millisecond,
		CkptBytes: 1 << 20,
	}
}

func TestNoFailuresNoWaste(t *testing.T) {
	q := testQuery(10)
	rep := Run(q, Rerun, nil)
	if rep.WastedTime != 0 || rep.TotalTime != rep.UsefulTime || rep.Failures != 0 {
		t.Fatalf("clean run must have zero waste: %+v", rep)
	}
	// Checkpointing without failures costs pure overhead.
	cp := Run(q, Checkpoint(2), nil)
	if cp.WastedTime != 0 {
		t.Fatalf("clean checkpointed run must have zero waste: %+v", cp)
	}
	if cp.CkptTime != 4*q.CkptTime {
		t.Fatalf("10 stages, ckpt every 2 (not after last) = 4 checkpoints, got %v", cp.CkptTime)
	}
	if cp.TotalTime <= rep.TotalTime {
		t.Error("checkpoints must cost time when nothing fails")
	}
}

func TestLateFailureRerunWastesEverything(t *testing.T) {
	q := testQuery(20)
	fail := FailuresAtProgress(q, 0.9) // fails at stage 18
	rerun := Run(q, Rerun, fail)
	// Rerun loses all 18 completed stages.
	if rerun.WastedTime < 18*q.StageTime {
		t.Errorf("rerun after 90%% progress must waste >= 18 stages, wasted %v", rerun.WastedTime)
	}
	ckpt := Run(q, Checkpoint(4), fail)
	// Checkpointed loses at most 4 stages (16 was the last checkpoint).
	if ckpt.WastedTime > 4*q.StageTime {
		t.Errorf("checkpoint-4 must lose <= 4 stages, wasted %v", ckpt.WastedTime)
	}
	if ckpt.TotalTime >= rerun.TotalTime {
		t.Errorf("for long queries checkpointing must win: %v vs %v", ckpt.TotalTime, rerun.TotalTime)
	}
}

func TestShortQueryRerunWins(t *testing.T) {
	// The paper: "short read requests can easily be repeated".  For a
	// short query in the common (failure-free) case, checkpointing is
	// pure overhead, and even a worst-case failure loses at most the
	// query itself — so rerun is the right default.
	q := testQuery(2)
	clean := Run(q, Rerun, nil)
	cleanCkpt := Run(q, Checkpoint(1), nil)
	if clean.TotalTime >= cleanCkpt.TotalTime {
		t.Errorf("failure-free short query: rerun (%v) must beat checkpoint-1 (%v)",
			clean.TotalTime, cleanCkpt.TotalTime)
	}
	failed := Run(q, Rerun, FailuresAtProgress(q, 0.5))
	if failed.WastedTime > clean.UsefulTime {
		t.Errorf("a single failure must waste at most one query length: %v > %v",
			failed.WastedTime, clean.UsefulTime)
	}
}

func TestEveryRunCompletes(t *testing.T) {
	q := testQuery(15)
	for _, p := range []Policy{Rerun, Checkpoint(1), Checkpoint(5)} {
		for k := 0; k < 5; k++ {
			// Scheduled failures strike attempt indices; a query that
			// finishes before a scheduled attempt simply outruns that
			// failure, so Failures <= k.
			rep := Run(q, p, RandomFailures(uint64(k+1), q, k))
			if rep.Failures > k {
				t.Errorf("%v: saw %d failures, scheduled only %d", p, rep.Failures, k)
			}
			if rep.TotalTime < rep.UsefulTime {
				t.Errorf("%v: total %v below useful %v", p, rep.TotalTime, rep.UsefulTime)
			}
			if rep.WastedTime < 0 {
				t.Errorf("%v: negative waste %v", p, rep.WastedTime)
			}
		}
	}
	// A failure scheduled inside the guaranteed attempt range must strike.
	rep := Run(q, Rerun, []int{3})
	if rep.Failures != 1 {
		t.Errorf("in-range failure must strike, saw %d", rep.Failures)
	}
}

func TestWorkAccountingGrowsWithFailures(t *testing.T) {
	q := testQuery(10)
	clean := Run(q, Rerun, nil)
	failed := Run(q, Rerun, FailuresAtProgress(q, 0.8))
	if failed.Work.Instructions <= clean.Work.Instructions {
		t.Error("failures must increase total executed work")
	}
	ck := Run(q, Checkpoint(2), nil)
	if ck.Work.BytesWrittenSSD == 0 {
		t.Error("checkpoints must write stable bytes")
	}
}

func TestFailureScheduleHelpers(t *testing.T) {
	q := testQuery(10)
	if f := FailuresAtProgress(q, 0); f[0] != 0 {
		t.Error("progress 0 must fail at stage 0")
	}
	if f := FailuresAtProgress(q, 1.5); f[0] != 9 {
		t.Error("progress >1 must clamp to last stage")
	}
	fs := RandomFailures(1, q, 5)
	if len(fs) != 5 {
		t.Fatal("wrong failure count")
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] < fs[i-1] {
			t.Fatal("failure schedule must be sorted")
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Rerun.String() != "rerun" || Checkpoint(3).String() != "checkpoint-3" {
		t.Fatal("policy names wrong")
	}
}

func TestCheckpointPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Checkpoint(0)
}
