package exec

import (
	"errors"
	"sync/atomic"
)

// ErrCanceled is returned by parallel operators whose core lease was
// canceled.  Cancellation is morsel-granular: workers finish the morsel
// they hold, stop claiming new ones, and the operator reports this error
// instead of a partial relation, so a canceled query never leaks a
// half-built result downstream.
var ErrCanceled = errors.New("exec: query canceled")

// Lease is a revocable grant of cores to one running query — the handle
// through which the multi-query scheduler (internal/sched.Loop, driven
// by core.Loop) arbitrates its shared core budget while queries run, and
// the only way an exec.Ctx is told its width.  The scheduler resizes the
// grant as queries enter and leave the machine; the query's worker pool
// observes the new width the next time it claims work.  Because the
// morsel grid is a function of the input alone (never of the worker
// count), resizing mid-query changes only how many workers claim morsels
// — results and charged counters stay byte-identical at every grant,
// which is what makes the lease safe to revoke at any moment.
//
// A Lease is safe for concurrent use: the scheduler goroutine resizes or
// cancels it while worker goroutines read it.
type Lease struct {
	grant    atomic.Int32
	canceled atomic.Bool
}

// NewLease returns a lease granting n cores (clamped to at least 1).
func NewLease(n int) *Lease {
	l := &Lease{}
	l.Resize(n)
	return l
}

// Grant returns the current core grant (at least 1).
func (l *Lease) Grant() int {
	if g := int(l.grant.Load()); g > 1 {
		return g
	}
	return 1
}

// Resize changes the core grant.  Values below 1 clamp to 1: a running
// query always keeps one core — taking the last core is Cancel's job.
func (l *Lease) Resize(n int) {
	if n < 1 {
		n = 1
	}
	l.grant.Store(int32(n))
}

// Cancel revokes the lease entirely.  Parallel operators already running
// stop at the next morsel boundary and return ErrCanceled.
func (l *Lease) Cancel() { l.canceled.Store(true) }

// Canceled reports whether the lease was revoked.
func (l *Lease) Canceled() bool { return l.canceled.Load() }
