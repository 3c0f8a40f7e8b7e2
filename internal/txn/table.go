// Package txn is the engine's write path: table transactions over the
// main/delta column store, with snapshot reads and first-committer-wins
// write conflicts — the optimistic, latch-light concurrency design of the
// paper's reference [18] (Hekaton-style).  A Manager owns the commit
// clock and the REDO log; a TableTx buffers inserts and deletes against
// colstore tables, validates first-committer-wins at commit, logs REDO
// records, applies the rows with one commit timestamp (which is what the
// tables' snapshot visibility reads), and rides the group-commit window
// so flush and replication cost amortize over concurrent commits —
// exactly the E9 group-commit economics, on the real write path.
package txn

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/wal"
)

// ErrConflict is returned when a transaction loses a write-write race.
var ErrConflict = fmt.Errorf("txn: write-write conflict, transaction aborted")

// Manager owns the commit timestamp clock, the REDO log, and the
// group-commit window for a set of tables.
type Manager struct {
	mu  sync.Mutex
	log *wal.Log
	// level is the durability QoS commits flush at.
	level wal.Level
	// window is the group-commit window: commits arriving within it ride
	// the previous flush (durable at the next one) instead of paying
	// their own.  Zero degenerates to a flush per commit.
	window    time.Duration
	ts        int64
	lastFlush time.Duration
	haveFlush bool

	commits int
	flushes int
	rides   int
	work    energy.Counters
}

// NewManager wires a manager to a log.  A nil log disables durability
// (commits apply, nothing is logged — for tests and scratch engines).
func NewManager(log *wal.Log, level wal.Level, window time.Duration) *Manager {
	return &Manager{log: log, level: level, window: window}
}

// SnapshotTS returns the current snapshot timestamp: every commit at or
// below it is visible.
func (m *Manager) SnapshotTS() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ts
}

// ObserveTS raises the commit clock to at least ts; replay calls it so
// post-recovery commits continue past the replayed history.
func (m *Manager) ObserveTS(ts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts > m.ts {
		m.ts = ts
	}
}

// Stats reports commit/flush counts and accumulated durability work.
func (m *Manager) Stats() (commits, flushes, rides int, work energy.Counters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits, m.flushes, m.rides, m.work
}

// Begin starts a table transaction at the current snapshot.
func (m *Manager) Begin() *TableTx {
	return &TableTx{m: m, snap: m.SnapshotTS()}
}

type tableOp struct {
	kind  wal.RecKind
	table *colstore.Table
	vals  []any // RecInsert
	rowid int64 // RecDelete
}

// TableTx buffers DML against colstore tables.  Reads run outside the
// transaction at its snapshot (Snapshot); writes apply at Commit.
type TableTx struct {
	m    *Manager
	snap int64
	ops  []tableOp
	done bool
}

// Snapshot returns the transaction's snapshot timestamp.
func (tx *TableTx) Snapshot() int64 { return tx.snap }

// Insert buffers one row (schema-ordered values).
func (tx *TableTx) Insert(t *colstore.Table, vals ...any) {
	tx.ops = append(tx.ops, tableOp{kind: wal.RecInsert, table: t, vals: vals})
}

// Delete buffers a tombstone on the row with the given stable id.
func (tx *TableTx) Delete(t *colstore.Table, rowid int64) {
	tx.ops = append(tx.ops, tableOp{kind: wal.RecDelete, table: t, rowid: rowid})
}

// Update buffers an update as delete + insert: the old row is
// tombstoned, the new version appended to the delta with a fresh stable
// id (version chains live in the row space, not in per-key chains).
func (tx *TableTx) Update(t *colstore.Table, rowid int64, vals ...any) {
	tx.Delete(t, rowid)
	tx.Insert(t, vals...)
}

// Abort discards the transaction.
func (tx *TableTx) Abort() { tx.done = true }

// CommitInfo reports one commit.
type CommitInfo struct {
	TS      int64  // commit timestamp
	LastLSN uint64 // highest WAL LSN of the transaction's records
	// Flushed is true when this commit paid for a flush; false when it
	// rode the group-commit window (durable at the next flush).
	Flushed bool
	Latency time.Duration
	// Work prices the WAL writes this commit triggered (DRAM for the
	// records, plus flush/replication when Flushed).
	Work    energy.Counters
	Applied int // rows inserted + tombstoned
}

// Commit validates first-committer-wins, logs REDO records, applies the
// buffered operations under one commit timestamp — past every snapshot
// handed out, and no lower than any timestamp its tables hold — and settles
// durability through the group-commit window.  at is the commit's
// virtual arrival time, which paces the window deterministically.
func (tx *TableTx) Commit(at time.Duration) (CommitInfo, error) {
	if tx.done {
		return CommitInfo{}, fmt.Errorf("txn: transaction already finished")
	}
	tx.done = true
	m := tx.m
	m.mu.Lock()
	defer m.mu.Unlock()
	// Validation: a delete of a row already tombstoned (by anyone) loses
	// — first committer wins; a delete of a vanished row id means the
	// row was tombstoned and merged away, the same race, same verdict.
	// Inserts are validated against the schema so a multi-op commit
	// cannot tear.
	for _, op := range tx.ops {
		switch op.kind {
		case wal.RecInsert:
			if err := op.table.CheckRow(op.vals...); err != nil {
				return CommitInfo{}, err
			}
		case wal.RecDelete:
			if _, ok := op.table.LookupRow(op.rowid); !ok {
				return CommitInfo{}, ErrConflict
			}
			if _, dead := op.table.DeletedAt(op.rowid); dead {
				return CommitInfo{}, ErrConflict
			}
		}
	}
	// A raw Writer load stamps its table past this clock; a commit never
	// stamps below a table's history.  It may share the load's last
	// timestamp: every snapshot handed out so far is at most m.ts, so no
	// reader can tell the two apart.
	ts := m.ts + 1
	for _, op := range tx.ops {
		ts = max(ts, op.table.LastTS())
	}
	info := CommitInfo{TS: ts}
	// REDO before apply; replay reassigns stable row ids in append
	// order, so insert records don't carry them.
	for _, op := range tx.ops {
		switch op.kind {
		case wal.RecInsert:
			rec := wal.Record{Kind: wal.RecInsert, TxID: uint64(ts), Key: op.table.Name, Payload: EncodeRow(op.vals)}
			var lsn uint64
			if m.log != nil {
				lsn = m.log.Append(rec)
			}
			if _, err := op.table.ApplyInsert(ts, lsn, op.vals...); err != nil {
				// Validated above; failure here is a programming error.
				return info, err
			}
			info.LastLSN = lsn
		case wal.RecDelete:
			var lsn uint64
			if m.log != nil {
				lsn = m.log.Append(wal.Record{Kind: wal.RecDelete, TxID: uint64(ts), Key: op.table.Name, Value: op.rowid})
			}
			if err := op.table.ApplyDelete(ts, lsn, op.rowid); err != nil {
				return info, err
			}
			info.LastLSN = lsn
		}
		info.Applied++
	}
	m.ts = ts
	m.commits++
	// Group commit: pay for a flush when the window has lapsed (or no
	// flush happened yet); otherwise ride the open window.
	if m.log != nil {
		if !m.haveFlush || m.window == 0 || at-m.lastFlush >= m.window {
			rep, err := m.log.Commit(m.level)
			if err != nil {
				return info, err
			}
			info.Flushed = true
			info.Latency = rep.Latency
			info.Work = rep.Work
			m.work.Add(rep.Work)
			m.lastFlush = at
			m.haveFlush = true
			m.flushes++
		} else {
			m.rides++
		}
	}
	return info, nil
}

// Sync flushes everything pending in the log (shutdown, or before a
// simulated crash).
func (m *Manager) Sync() (wal.CommitReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return wal.CommitReport{}, nil
	}
	rep, err := m.log.Commit(m.level)
	if err == nil {
		m.work.Add(rep.Work)
		m.flushes++
	}
	return rep, err
}

// Apply replays one REDO record into its table, resolving tables by
// name.  Replay is idempotent: records at or below a table's applied LSN
// are skipped, so replaying a log twice — or replaying records already
// applied before a crash — changes nothing.
func Apply(rec wal.Record, resolve func(string) *colstore.Table) error {
	t := resolve(rec.Key)
	if t == nil {
		return fmt.Errorf("txn: replay: unknown table %q", rec.Key)
	}
	if rec.LSN <= t.AppliedLSN() {
		return nil
	}
	switch rec.Kind {
	case wal.RecInsert:
		vals, err := DecodeRow(t.Schema(), rec.Payload)
		if err != nil {
			return fmt.Errorf("txn: replay lsn %d: %w", rec.LSN, err)
		}
		if _, err := t.ApplyInsert(int64(rec.TxID), rec.LSN, vals...); err != nil {
			return fmt.Errorf("txn: replay lsn %d: %w", rec.LSN, err)
		}
	case wal.RecDelete:
		if err := t.ApplyDelete(int64(rec.TxID), rec.LSN, rec.Value); err != nil {
			return fmt.Errorf("txn: replay lsn %d: %w", rec.LSN, err)
		}
	default:
		return fmt.Errorf("txn: replay lsn %d: unknown record kind %d", rec.LSN, rec.Kind)
	}
	return nil
}

// Replay recovers every surviving table record from the log, in LSN
// order, and raises the manager clock past the replayed history.
// Returns the number of records applied (skipped records don't count).
func (m *Manager) Replay(resolve func(string) *colstore.Table) (int, error) {
	if m.log == nil {
		return 0, nil
	}
	applied := 0
	var firstErr error
	var maxTS int64
	m.log.Recover(func(rec wal.Record) {
		if firstErr != nil {
			return
		}
		if t := resolve(rec.Key); t != nil && rec.LSN <= t.AppliedLSN() {
			if int64(rec.TxID) > maxTS {
				maxTS = int64(rec.TxID)
			}
			return
		}
		if err := Apply(rec, resolve); err != nil {
			firstErr = err
			return
		}
		if int64(rec.TxID) > maxTS {
			maxTS = int64(rec.TxID)
		}
		applied++
	})
	if firstErr != nil {
		return applied, firstErr
	}
	m.ObserveTS(maxTS)
	return applied, nil
}

// EncodeRow serializes schema-ordered row values for a REDO payload:
// int64 and float64 as 8 little-endian bytes, strings length-prefixed
// (uvarint).  The encoding is positional — the schema supplies types at
// decode.
func EncodeRow(vals []any) []byte {
	var out []byte
	var buf [8]byte
	for _, v := range vals {
		switch x := v.(type) {
		case int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			out = append(out, buf[:]...)
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			out = append(out, buf[:]...)
		case string:
			n := binary.PutUvarint(buf[:], uint64(len(x)))
			out = append(out, buf[:n]...)
			out = append(out, x...)
		}
	}
	return out
}

// DecodeRow deserializes a REDO payload against the schema.
func DecodeRow(schema colstore.Schema, b []byte) ([]any, error) {
	vals := make([]any, 0, len(schema))
	for _, d := range schema {
		switch d.Type {
		case colstore.Int64, colstore.Float64:
			if len(b) < 8 {
				return nil, fmt.Errorf("txn: short row payload at column %q", d.Name)
			}
			u := binary.LittleEndian.Uint64(b[:8])
			b = b[8:]
			if d.Type == colstore.Int64 {
				vals = append(vals, int64(u))
			} else {
				vals = append(vals, math.Float64frombits(u))
			}
		case colstore.String:
			n, sz := binary.Uvarint(b)
			if sz <= 0 || uint64(len(b)-sz) < n {
				return nil, fmt.Errorf("txn: short row payload at column %q", d.Name)
			}
			vals = append(vals, string(b[sz:sz+int(n)]))
			b = b[sz+int(n):]
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("txn: %d trailing payload bytes", len(b))
	}
	return vals, nil
}
