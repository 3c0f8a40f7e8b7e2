package core

import (
	"repro/internal/txn"
	"repro/internal/wal"
)

// Test-only surface: the served engine commits under a 200µs
// group-commit window, and the loop's own goroutine reads a ticket's done
// flag directly.

// openUnbatched opens an engine whose commits each flush the REDO log
// locally (no group-commit window), so a crashed log holds every commit.
func openUnbatched(opts ...Option) *Engine {
	e := Open(opts...)
	e.txm = txn.NewManager(e.log, wal.Local, 0)
	return e
}

// Done reports whether the ticket's result fields have settled.  Like
// every loop state it is read under the loop's serialization; a
// goroutine outside it waits on Settled instead.
func (t *Ticket) Done() bool { return t.done }
