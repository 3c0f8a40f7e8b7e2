package numa_test

// Package numa lives in internal/experiments/numa, beside E16, the
// experiment that owns it; its tests keep this import path.

import (
	"testing"

	. "repro/internal/experiments/numa"
	"repro/internal/workload"
)

func TestRemoteCostsMore(t *testing.T) {
	topo := Default2Socket()
	dl, cl := topo.ScanCost(0, 0, 1<<30)
	dr, cr := topo.ScanCost(0, 1, 1<<30)
	if dr <= dl {
		t.Errorf("remote scan must be slower: %v vs %v", dr, dl)
	}
	if cl.BytesSentLink != 0 || cr.BytesSentLink == 0 {
		t.Error("only remote traffic crosses the interconnect")
	}
}

func TestAwareScheduleBeatsOblivious(t *testing.T) {
	topo := Default2Socket()
	rng := workload.NewRNG(1)
	n := 64
	partBytes := make([]uint64, n)
	placement := make([]int, n)
	for i := range partBytes {
		partBytes[i] = uint64(64+rng.Intn(192)) << 20
		placement[i] = i % topo.Sockets
	}
	aware := topo.EvaluateSchedule(partBytes, placement, AwareAssign(placement))
	obliv := topo.EvaluateSchedule(partBytes, placement, ObliviousAssign(n, topo.Sockets, 2))
	if aware.RemoteBytes != 0 {
		t.Errorf("aware schedule must be fully local, %d remote bytes", aware.RemoteBytes)
	}
	if obliv.RemoteFraction() < 0.25 {
		t.Errorf("oblivious schedule should cross sockets ~half the time, got %.2f", obliv.RemoteFraction())
	}
	if aware.TotalTime >= obliv.TotalTime {
		t.Errorf("aware total time must win: %v vs %v", aware.TotalTime, obliv.TotalTime)
	}
}

func TestExplicitPlacementBeatsCoherencyForRepeatedAccess(t *testing.T) {
	// The paper's claim: when the system knows the allocation scheme,
	// software-managed transfer beats hardware coherency.  One round
	// favors coherent (no extra copy); many rounds favor explicit.
	topo := Default2Socket()
	const bytes = 256 << 20
	dCoh1, _ := topo.SharedAccessCost(Coherent, bytes, 1)
	dExp1, _ := topo.SharedAccessCost(Explicit, bytes, 1)
	if dExp1 <= dCoh1 {
		t.Errorf("single access should favor coherent: explicit %v vs coherent %v", dExp1, dCoh1)
	}
	dCoh8, cCoh8 := topo.SharedAccessCost(Coherent, bytes, 8)
	dExp8, cExp8 := topo.SharedAccessCost(Explicit, bytes, 8)
	if dExp8 >= dCoh8 {
		t.Errorf("8 rounds must favor explicit: %v vs %v", dExp8, dCoh8)
	}
	if cExp8.BytesSentLink >= cCoh8.BytesSentLink {
		t.Error("explicit placement must move fewer interconnect bytes")
	}
}

func TestSharingModeString(t *testing.T) {
	if Coherent.String() != "coherent" || Explicit.String() != "explicit" {
		t.Fatal("mode names wrong")
	}
}

func TestScheduleReportFractions(t *testing.T) {
	var r ScheduleReport
	if r.RemoteFraction() != 0 {
		t.Fatal("empty report must be 0")
	}
	r.RemoteBytes, r.LocalBytes = 1, 3
	if r.RemoteFraction() != 0.25 {
		t.Fatalf("fraction = %g", r.RemoteFraction())
	}
}
