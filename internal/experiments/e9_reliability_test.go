package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments/synth"
	"repro/internal/wal"
)

func TestGroupCommitAmortizes(t *testing.T) {
	// Larger windows must reduce batches (and thus flush work) at the
	// price of added latency — the ablation of DESIGN.md.
	cfg := wal.DefaultConfig()
	gaps := synth.Poisson(5, 2000, 50000) // 50k txn/s
	arrivals := make([]time.Duration, len(gaps))
	var at time.Duration
	for i, g := range gaps {
		at += g
		arrivals[i] = at
	}
	none := SimulateGroupCommit(cfg, arrivals, 64, 0, wal.Local)
	win := SimulateGroupCommit(cfg, arrivals, 64, 256*time.Microsecond, wal.Local)
	if win.Batches >= none.Batches {
		t.Errorf("window must reduce batches: %d vs %d", win.Batches, none.Batches)
	}
	if win.AvgLatency <= none.AvgLatency {
		t.Errorf("window must add latency: %v vs %v", win.AvgLatency, none.AvgLatency)
	}
	if none.Txns != 2000 || win.Txns != 2000 {
		t.Fatal("all transactions must be accounted")
	}
	// Same bytes reach stable storage either way.
	if none.TotalWork.BytesWrittenSSD != win.TotalWork.BytesWrittenSSD {
		t.Errorf("flush bytes differ: %d vs %d",
			none.TotalWork.BytesWrittenSSD, win.TotalWork.BytesWrittenSSD)
	}
}

func TestGroupCommitReplCostsMore(t *testing.T) {
	cfg := wal.DefaultConfig()
	arrivals := []time.Duration{0, time.Microsecond, 2 * time.Microsecond}
	local := SimulateGroupCommit(cfg, arrivals, 128, 100*time.Microsecond, wal.Local)
	repl := SimulateGroupCommit(cfg, arrivals, 128, 100*time.Microsecond, wal.Repl3)
	if repl.AvgLatency <= local.AvgLatency {
		t.Error("replication must add latency")
	}
	if repl.TotalWork.BytesSentLink == 0 || local.TotalWork.BytesSentLink != 0 {
		t.Error("link traffic accounting wrong")
	}
}

// BenchmarkGroupCommitWindows is the group-commit ablation from
// DESIGN.md: windows 0/64/256 µs at the local QoS level.
func BenchmarkGroupCommitWindows(b *testing.B) {
	cfg := wal.DefaultConfig()
	gaps := synth.Poisson(1, 10_000, 100_000)
	arrivals := make([]time.Duration, len(gaps))
	var at time.Duration
	for i, g := range gaps {
		at += g
		arrivals[i] = at
	}
	for _, win := range []time.Duration{0, 64 * time.Microsecond, 256 * time.Microsecond} {
		b.Run(fmt.Sprintf("win%v", win), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SimulateGroupCommit(cfg, arrivals, 96, win, wal.Local)
			}
		})
	}
}
