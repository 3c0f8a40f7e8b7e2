// Package wal implements the REDO log with the multi-level reliability
// semantics of §III: the database attaches quality-of-service levels to
// memory fragments, so cheap intermediate results stay volatile while
// commit records are flushed locally or replicated across nodes.  Commit
// latency and energy are priced per level (experiment E9); group commit
// amortizes flush and replication cost over batches.
package wal

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/netsim"
)

// Level is the durability QoS of a log write.
type Level int

// The reliability levels of experiment E9, in increasing durability and
// cost.
const (
	// Volatile keeps records in DRAM only — the "cheap memory with high
	// write and read performance" the paper assigns to intermediates.
	Volatile Level = iota
	// Local flushes to node-local stable media (SSD-class latency).
	Local
	// Repl2 flushes locally and synchronously replicates to one peer.
	Repl2
	// Repl3 flushes locally and synchronously replicates to two peers.
	Repl3
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Volatile:
		return "volatile"
	case Local:
		return "local"
	case Repl2:
		return "repl-2"
	case Repl3:
		return "repl-3"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Replicas returns how many remote copies the level requires.
func (l Level) Replicas() int {
	switch l {
	case Repl2:
		return 1
	case Repl3:
		return 2
	}
	return 0
}

// RecKind discriminates REDO entries.  Every record is table state; the
// zero value is no kind, so a record built without one fails replay.
type RecKind int

const (
	// RecInsert appends one table row: Key names the table, TxID carries
	// the commit timestamp, Payload the encoded row (internal/txn's row
	// codec).  Stable row ids are not logged — replay reassigns them
	// deterministically in append order.
	RecInsert RecKind = iota + 1
	// RecDelete tombstones one table row: Key names the table, TxID the
	// commit timestamp, Value the stable row id.
	RecDelete
)

// Record is one REDO entry.
type Record struct {
	LSN     uint64
	TxID    uint64
	Key     string
	Value   int64
	Kind    RecKind
	Payload []byte
}

// bytes approximates the serialized size of a record.
func (r Record) bytes() uint64 { return uint64(24 + len(r.Key) + len(r.Payload)) }

// Config prices the durability mechanisms.
type Config struct {
	FlushLatency time.Duration // local stable-media flush
	Link         *netsim.Link  // replication path (required for Repl*)
}

// DefaultConfig uses SSD-class flush latency and a 10 Gb/s cluster link.
func DefaultConfig() Config {
	link, _ := netsim.LinkByName("10Gbps")
	return Config{FlushLatency: 80 * time.Microsecond, Link: link}
}

// Log is an in-memory REDO log whose commit operations report the
// simulated latency and energy of the selected QoS level.
type Log struct {
	mu         sync.Mutex
	cfg        Config
	records    []Record
	nextLSN    uint64
	durable    uint64 // highest LSN guaranteed by the level's mechanism
	durableIdx int    // records[:durableIdx] are durable (LSN order = slice order)
	pricedIdx  int    // records[:pricedIdx] had their DRAM write priced
}

// NewLog returns an empty log.
func NewLog(cfg Config) *Log { return &Log{cfg: cfg, nextLSN: 1} }

// Append adds records without any durability guarantee (they become
// durable at the next Commit covering them).  Returns the last LSN.
func (l *Log) Append(recs ...Record) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range recs {
		recs[i].LSN = l.nextLSN
		l.nextLSN++
		l.records = append(l.records, recs[i])
	}
	return l.nextLSN - 1
}

// CommitReport prices one commit.
type CommitReport struct {
	Latency time.Duration
	Work    energy.Counters
	LSN     uint64
}

// Commit makes everything appended so far durable at the given level and
// returns the priced report.  Records are appended in LSN order, so the
// pending set is always the suffix beyond durableIdx — commits cost
// O(pending), not O(log size).
func (l *Log) Commit(level Level) (CommitReport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The DRAM write is priced once per record, at its first commit of
	// any level; the durability mechanism prices everything still
	// non-durable.
	var freshBytes uint64
	for i := l.pricedIdx; i < len(l.records); i++ {
		freshBytes += l.records[i].bytes()
	}
	rep := CommitReport{LSN: l.nextLSN - 1}
	if l.durableIdx == len(l.records) && freshBytes == 0 {
		return rep, nil
	}
	var w energy.Counters
	var lat time.Duration
	w.BytesWrittenDRAM += freshBytes
	l.pricedIdx = len(l.records)
	switch {
	case level == Volatile:
		// Nothing beyond the DRAM write; the durability backlog is not
		// touched.
	default:
		var bytes uint64
		for i := l.durableIdx; i < len(l.records); i++ {
			bytes += l.records[i].bytes()
		}
		lat += l.cfg.FlushLatency
		w.BytesWrittenSSD += bytes
		if k := level.Replicas(); k > 0 {
			if l.cfg.Link == nil {
				return rep, fmt.Errorf("wal: level %v requires a replication link", level)
			}
			// Replicas are written in parallel; latency is one RTT plus
			// the transfer, energy scales with the copy count.
			d, c := l.cfg.Link.Ship(bytes)
			lat += d + l.cfg.Link.Latency // ack path
			c.BytesSentLink *= uint64(k)
			c.BytesRecvLink *= uint64(k)
			c.Messages *= uint64(k)
			c.Messages += uint64(k) // acks
			w.Add(c)
			w.BytesWrittenSSD += bytes * uint64(k)
		}
	}
	if level != Volatile {
		l.durable = l.nextLSN - 1
		l.durableIdx = len(l.records)
	}
	rep.Latency = lat
	rep.Work = w
	return rep, nil
}

// Crash simulates a node failure: all records beyond the durable LSN are
// lost.
//
//lint:allow reach: README crash-recovery API, ROADMAP item 9; wal and core recovery tests
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = l.records[:l.durableIdx]
	if l.pricedIdx > l.durableIdx {
		l.pricedIdx = l.durableIdx
	}
	l.nextLSN = l.durable + 1
}

// Recover replays all surviving records in LSN order into apply.  Replay
// is idempotent when apply is (REDO semantics: set, not increment).
func (l *Log) Recover(apply func(Record)) {
	l.mu.Lock()
	recs := append([]Record(nil), l.records...)
	l.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	for _, r := range recs {
		apply(r)
	}
}
