package locks

import (
	"testing"
	"time"
)

func TestAllSchemesExactlyCorrect(t *testing.T) {
	const ops, groups, workers = 80000, 128, 8
	for _, s := range []Scheme{GlobalLock, ShardedLock, AtomicAdd, HTMSim, Partitioned} {
		r := RunAggregation(s, workers, ops, groups, 1.1, 42)
		want := int64(ops / workers * workers)
		if got := r.Total(); got != want {
			t.Errorf("%v: total = %d, want %d (lost or duplicated updates)", s, got, want)
		}
		if len(r.Groups) != groups {
			t.Errorf("%v: %d groups", s, len(r.Groups))
		}
	}
}

func TestSchemesAgreeOnDistribution(t *testing.T) {
	// Same seed => same Zipf draws => identical group totals across
	// schemes (determinism of the workload, not the interleaving).
	const ops, groups, workers = 40000, 64, 4
	base := RunAggregation(GlobalLock, workers, ops, groups, 1.2, 7)
	for _, s := range []Scheme{ShardedLock, AtomicAdd, HTMSim, Partitioned} {
		r := RunAggregation(s, workers, ops, groups, 1.2, 7)
		for g := range base.Groups {
			if r.Groups[g] != base.Groups[g] {
				t.Fatalf("%v: group %d = %d, want %d", s, g, r.Groups[g], base.Groups[g])
			}
		}
	}
}

func TestHTMSimAbortsUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("contention test")
	}
	// Extreme skew on few groups with many workers must provoke retries.
	r := RunAggregation(HTMSim, 8, 400000, 2, 2.0, 11)
	if r.Aborts == 0 {
		t.Log("note: no aborts observed (machine may be single-core); skipping assertion")
	}
	if r.Total() != int64(400000/8*8) {
		t.Fatal("aborted transactions must retry to completion")
	}
}

func TestPartitionedBeatsGlobalLockWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const ops, groups = 400000, 256
	run := func(s Scheme) time.Duration {
		start := time.Now() //lint:allow determinism: deliberate wall-clock scaling probe, skipped under -short; asserts only a generous ratio
		RunAggregation(s, 8, ops, groups, 1.1, 3)
		return time.Since(start) //lint:allow determinism: deliberate wall-clock scaling probe, skipped under -short; asserts only a generous ratio
	}
	// Warm up the scheduler.
	run(Partitioned)
	gl := run(GlobalLock)
	pt := run(Partitioned)
	// The paper's claim is about scaling; on a multicore box partitioned
	// should not be slower.  Keep a generous margin for CI noise.
	if pt > gl*3 {
		t.Errorf("partitioned (%v) much slower than global lock (%v)?", pt, gl)
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		GlobalLock: "global-lock", ShardedLock: "sharded-lock",
		AtomicAdd: "atomic", HTMSim: "htm-sim", Partitioned: "partitioned",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
