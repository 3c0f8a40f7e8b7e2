package workload_test

// The generators these tests pin live in internal/experiments/synth,
// which imports this package, so the tests are external ones.

import (
	"math"
	"testing"
	"time"

	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

// TestPointStormGolden pins the head of the E21 storm script
// (seed=17, qps=100000, s=1.3, nCust=40) exactly.  PointStorm is the
// one arrival script behind E21, E22, the serving replay harness, and
// eimdb-bench -replay; a drift here silently re-randomizes every
// scheduler experiment and the committed benchmark baselines.
func TestPointStormGolden(t *testing.T) {
	want := []workload.Arrival{
		{At: 3130, SQL: "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 4"},
		{At: 6230, SQL: "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 5"},
		{At: 6981, SQL: "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 0"},
		{At: 23325, SQL: "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 0"},
	}
	s := synth.PointStorm(17, len(want), 100_000, 1.3, 40)
	if len(s.Arrivals) != len(want) {
		t.Fatalf("script length %d, want %d", len(s.Arrivals), len(want))
	}
	for i, w := range want {
		if s.Arrivals[i] != w {
			t.Fatalf("arrival %d = %+v, want %+v (script drifted)", i, s.Arrivals[i], w)
		}
	}
	var prev time.Duration
	for i, a := range s.Arrivals {
		if a.At < prev {
			t.Fatalf("arrival %d moved backward: %v after %v", i, a.At, prev)
		}
		prev = a.At
	}
}

// TestAssignClients checks the round-robin client stamping.
func TestAssignClients(t *testing.T) {
	s := synth.AssignClients(synth.PointStorm(17, 5, 1000, 1.3, 40), "a", "b")
	want := []string{"a", "b", "a", "b", "a"}
	for i, w := range want {
		if got := s.Arrivals[i].Client; got != w {
			t.Fatalf("arrival %d client %q, want %q", i, got, w)
		}
	}
	if synth.AssignClients(synth.PointStorm(17, 2, 1000, 1.3, 40)).Arrivals[0].Client != "" {
		t.Fatal("empty client list must leave arrivals anonymous")
	}
}

func TestSortedAndRunsInts(t *testing.T) {
	s := synth.SortedInts(4, 1000, 10)
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("SortedInts must be strictly ascending")
		}
	}
	r := synth.RunsInts(5, 10000, 8, 50)
	runs := 1
	for i := 1; i < len(r); i++ {
		if r[i] != r[i-1] {
			runs++
		}
		if r[i] < 0 || r[i] >= 8 {
			t.Fatal("RunsInts value out of range")
		}
	}
	if avg := float64(len(r)) / float64(runs); avg < 10 {
		t.Errorf("average run length %g too short for runLen=50", avg)
	}
}

func TestDiurnalTrace(t *testing.T) {
	phases := synth.Diurnal(80, time.Minute)
	if len(phases) == 0 {
		t.Fatal("empty trace")
	}
	max := 0.0
	for _, p := range phases {
		if p.Rate <= 0 || p.Duration != time.Minute {
			t.Fatalf("bad phase %+v", p)
		}
		if p.Rate > max {
			max = p.Rate
		}
	}
	if max != 80 {
		t.Errorf("peak rate %g, want 80", max)
	}
	if phases[0].Rate >= max {
		t.Error("trace should start in a trough")
	}
}

// TestPoissonGolden pins the first gaps of synth.Poisson(seed=7, rate=1000/s).
func TestPoissonGolden(t *testing.T) {
	want := []time.Duration{198150, 74410, 2415198, 2229079, 982067, 898268, 159132, 1767813}
	got := synth.Poisson(7, len(want), 1000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gap %d = %d, want %d (generator drifted)", i, got[i], want[i])
		}
	}
	var sum time.Duration
	for _, g := range got {
		sum += g
	}
	if sum != 8724117 {
		t.Fatalf("gap sum = %d, want 8724117", sum)
	}
}

// TestCrossInstanceDeterminism: two generators with the same seed march
// in lockstep regardless of allocation order — the property scheduler
// experiments lean on when they re-derive a workload in two arms.
func TestCrossInstanceDeterminism(t *testing.T) {
	a := workload.NewZipf(workload.NewRNG(99), 1.4, 5000)
	_ = synth.Poisson(1, 100, 10) // unrelated generator in between
	b := workload.NewZipf(workload.NewRNG(99), 1.4, 5000)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
	ga := synth.Poisson(123, 500, 2500)
	gb := synth.Poisson(123, 500, 2500)
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("gap %d diverged: %v vs %v", i, ga[i], gb[i])
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	gaps := synth.Poisson(6, 10000, 100)
	var total time.Duration
	for _, g := range gaps {
		if g < 0 {
			t.Fatal("negative gap")
		}
		total += g
	}
	mean := total.Seconds() / float64(len(gaps))
	if math.Abs(mean-0.01) > 0.002 {
		t.Errorf("mean gap %g s, want ~0.01 s", mean)
	}
}
