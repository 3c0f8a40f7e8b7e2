package wal

import (
	"testing"
	"time"

	"repro/internal/energy"
)

func TestLevelOrderingLatencyAndEnergy(t *testing.T) {
	// E9's central shape: commit latency and energy must rise strictly
	// with the reliability level.
	model := energy.DefaultModel()
	levels := []Level{Volatile, Local, Repl2, Repl3}
	var lastLat time.Duration = -1
	var lastJ energy.Joules = -1
	for _, lv := range levels {
		l := NewLog(DefaultConfig())
		l.Append(Record{Kind: RecDelete, TxID: 1, Key: "a", Value: 1}, Record{Kind: RecDelete, TxID: 1, Key: "b", Value: 2})
		rep, err := l.Commit(lv)
		if err != nil {
			t.Fatal(err)
		}
		j := model.DynamicEnergy(rep.Work, model.Core.MaxPState()).Total()
		if rep.Latency < lastLat {
			t.Errorf("%v: latency %v below weaker level's %v", lv, rep.Latency, lastLat)
		}
		if j < lastJ {
			t.Errorf("%v: energy %v below weaker level's %v", lv, j, lastJ)
		}
		lastLat, lastJ = rep.Latency, j
	}
}

func TestCommitIdempotentWhenNothingPending(t *testing.T) {
	l := NewLog(DefaultConfig())
	l.Append(Record{Kind: RecDelete, TxID: 1, Key: "x", Value: 1})
	if _, err := l.Commit(Local); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Commit(Repl3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != 0 || rep.Work != (energy.Counters{}) {
		t.Error("empty commit must be free")
	}
}

func TestCrashLosesOnlyVolatileTail(t *testing.T) {
	l := NewLog(DefaultConfig())
	l.Append(Record{Kind: RecDelete, TxID: 1, Key: "a", Value: 1})
	if _, err := l.Commit(Local); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: RecDelete, TxID: 2, Key: "b", Value: 2}) // never committed
	l.Crash()
	state := map[string]int64{}
	l.Recover(func(r Record) { state[r.Key] = r.Value })
	if state["a"] != 1 {
		t.Error("durable record lost in crash")
	}
	if _, ok := state["b"]; ok {
		t.Error("uncommitted record survived crash")
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	l := NewLog(DefaultConfig())
	l.Append(
		Record{Kind: RecDelete, TxID: 1, Key: "k", Value: 1},
		Record{Kind: RecDelete, TxID: 2, Key: "k", Value: 5},
		Record{Kind: RecDelete, TxID: 3, Key: "j", Value: 7},
	)
	if _, err := l.Commit(Local); err != nil {
		t.Fatal(err)
	}
	apply := func(state map[string]int64) {
		l.Recover(func(r Record) { state[r.Key] = r.Value })
	}
	once := map[string]int64{}
	apply(once)
	twice := map[string]int64{}
	apply(twice)
	apply(twice)
	if once["k"] != 5 || once["j"] != 7 {
		t.Fatalf("recovered state wrong: %v", once)
	}
	for k, v := range once {
		if twice[k] != v {
			t.Fatal("REDO replay must be idempotent")
		}
	}
}

func TestVolatileNeverDurable(t *testing.T) {
	l := NewLog(DefaultConfig())
	l.Append(Record{Kind: RecDelete, TxID: 1, Key: "a", Value: 1})
	if _, err := l.Commit(Volatile); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	count := 0
	l.Recover(func(Record) { count++ })
	if count != 0 {
		t.Error("volatile records must not survive a crash")
	}
	// A volatile commit after a durable one must not advance the durable
	// LSN: only the durable record survives the next crash.
	l.Append(Record{Kind: RecDelete, TxID: 2, Key: "b", Value: 2})
	if _, err := l.Commit(Local); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: RecDelete, TxID: 3, Key: "c", Value: 3})
	if _, err := l.Commit(Volatile); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	var survived []uint64
	l.Recover(func(r Record) { survived = append(survived, r.TxID) })
	if len(survived) != 1 || survived[0] != 2 {
		t.Errorf("after a durable then a volatile commit, crash kept txns %v, want [2]", survived)
	}
}

func TestReplWithoutLinkErrors(t *testing.T) {
	l := NewLog(Config{FlushLatency: time.Microsecond})
	l.Append(Record{Kind: RecDelete, TxID: 1, Key: "a", Value: 1})
	if _, err := l.Commit(Repl2); err == nil {
		t.Fatal("replication without a link must error")
	}
}

func TestGroupCommitAmortizes(t *testing.T) {
	// One Commit covers everything appended since the last: a batch of n
	// records pays one flush, while n single-record commits pay n.  The
	// same bytes reach stable storage either way.
	const n = 8
	batched := NewLog(DefaultConfig())
	single := NewLog(DefaultConfig())
	var singleLat time.Duration
	var singleWork energy.Counters
	for i := 0; i < n; i++ {
		rec := Record{Kind: RecDelete, TxID: uint64(i + 1), Key: "k", Value: int64(i)}
		batched.Append(rec)
		single.Append(rec)
		rep, err := single.Commit(Local)
		if err != nil {
			t.Fatal(err)
		}
		singleLat += rep.Latency
		singleWork.Add(rep.Work)
	}
	rep, err := batched.Commit(Local)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != DefaultConfig().FlushLatency {
		t.Errorf("batch commit latency %v, want one flush %v", rep.Latency, DefaultConfig().FlushLatency)
	}
	if rep.Latency*n != singleLat {
		t.Errorf("batch commit must amortize flushes: %v vs %d single commits totalling %v", rep.Latency, n, singleLat)
	}
	if rep.Work.BytesWrittenSSD != singleWork.BytesWrittenSSD {
		t.Errorf("flush bytes differ: %d vs %d", rep.Work.BytesWrittenSSD, singleWork.BytesWrittenSSD)
	}
	if rep.LSN != n {
		t.Fatalf("batch commit covers LSN %d, want %d", rep.LSN, n)
	}
}

func TestGroupCommitReplCostsMore(t *testing.T) {
	commit := func(level Level) CommitReport {
		l := NewLog(DefaultConfig())
		l.Append(
			Record{Kind: RecDelete, TxID: 1, Key: "a", Value: 1},
			Record{Kind: RecDelete, TxID: 2, Key: "b", Value: 2},
			Record{Kind: RecDelete, TxID: 3, Key: "c", Value: 3},
		)
		rep, err := l.Commit(level)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	local, repl := commit(Local), commit(Repl3)
	if repl.Latency <= local.Latency {
		t.Error("replication must add latency")
	}
	if repl.Work.BytesSentLink == 0 || local.Work.BytesSentLink != 0 {
		t.Error("link traffic accounting wrong")
	}
}

func TestLevelString(t *testing.T) {
	if Volatile.String() != "volatile" || Local.String() != "local" ||
		Repl2.String() != "repl-2" || Repl3.String() != "repl-3" {
		t.Fatal("level names wrong")
	}
}
