package server

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock is the server's only source of time.  The serving loop never
// reads a wall clock directly: production wires a monotonic real clock
// (cmd/eimdb-serve), tests wire SimClock and drive virtual time by
// hand — the same discipline that makes mq_test.go deterministic, now
// spanning the whole HTTP front end.  Now is the current offset since
// the clock's epoch; Schedule requests a wake-up callback at (or as
// soon as possible after) the given offset.
type Clock interface {
	Now() time.Duration
	Schedule(at time.Duration, wake func())
}

// simWake is one pending SimClock callback.
type simWake struct {
	at  time.Duration
	seq int // FIFO tie-break for wakes at the same instant
	fn  func()
}

// SimClock is a hand-driven virtual clock.  Time moves only through
// Advance, which fires scheduled wakes in (time, FIFO) order — each
// wake invoked OUTSIDE the clock's lock, at a Now() equal to its
// scheduled offset, so a wake may itself read the clock and schedule
// further wakes.  Two runs that advance through the same offsets fire
// the same wakes at the same virtual instants: nothing here depends on
// the wall clock or goroutine timing.
type SimClock struct {
	mu    sync.Mutex
	now   time.Duration
	wakes []simWake
	seq   int
	state func() string // the driven server's loop state (Server.loopState), for the stall panic
}

// maxWakesPerInstant bounds the wakes Advance fires without time moving.
// A server arms one wake per finish event, so this many at one instant
// is a wake that re-arms itself forever — a finish the loop reports but
// never retires — and Advance panics with the loop's state rather than
// spin until the test binary's timeout.
const maxWakesPerInstant = 1 << 16

// NewSimClock returns a virtual clock at offset zero.
//
//lint:allow reach: simulated-clock harness of E22 and the server determinism tests
func NewSimClock() *SimClock { return &SimClock{} }

// Now returns the current virtual offset.
func (c *SimClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Schedule registers a wake at the given offset.  Offsets in the past
// clamp to the present and fire on the next Advance.  Duplicate and
// stale wakes are expected — the serving loop re-schedules its next
// completion after every event and treats spurious wake-ups as no-ops.
func (c *SimClock) Schedule(at time.Duration, wake func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if at < c.now {
		at = c.now
	}
	c.wakes = append(c.wakes, simWake{at: at, seq: c.seq, fn: wake})
	c.seq++
	sort.SliceStable(c.wakes, func(i, j int) bool { return c.wakes[i].at < c.wakes[j].at })
}

// Advance moves virtual time to the given offset, firing every wake
// scheduled at or before it, in order, and panics on a wake livelock
// (maxWakesPerInstant).  The clock's lock is released
// around each callback: wakes take the server's lock, and the server's
// handlers take the clock's — holding both here would invert that
// order and deadlock.  Advance never moves time backward.
//
//lint:allow reach: simulated-clock harness of E22 and the server determinism tests
func (c *SimClock) Advance(to time.Duration) {
	for fired, at := 0, time.Duration(-1); ; fired++ {
		c.mu.Lock()
		if len(c.wakes) == 0 || c.wakes[0].at > to {
			if to > c.now {
				c.now = to
			}
			c.mu.Unlock()
			return
		}
		w := c.wakes[0]
		c.wakes = c.wakes[1:]
		if w.at > c.now {
			c.now = w.at
		}
		if c.now != at {
			fired, at = 0, c.now
		}
		state := c.state
		c.mu.Unlock()
		if fired == maxWakesPerInstant {
			msg := "no server attached"
			if state != nil {
				msg = state()
			}
			panic(fmt.Sprintf("server: SimClock fired %d wakes at %v without time moving: %s", fired, at, msg))
		}
		w.fn()
	}
}
