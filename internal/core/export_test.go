package core

import (
	"time"

	"repro/internal/wal"
)

// Test-only surface: the served engine runs at the default durability,
// and the loop's own goroutine reads a ticket's done flag directly.

// WithDurability sets the REDO log's QoS level and group-commit window
// (defaults: local flush, 200µs window).
func WithDurability(level wal.Level, window time.Duration) Option {
	return func(e *Engine) {
		e.walLevel = level
		e.walWindow = window
	}
}

// Done reports whether the ticket's result fields have settled.  Like
// every loop state it is read under the loop's serialization; a
// goroutine outside it waits on Settled instead.
func (t *Ticket) Done() bool { return t.done }
