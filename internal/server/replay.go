package server

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// Played is one scripted arrival's outcome: the HTTP status and the
// exact response body bytes the live handler would have written (plus
// the Retry-After hint for 429s).  Because bodies carry only
// schedule-invariant facts, a completed query's Played is byte-
// identical at every core budget and batching setting — the serving
// determinism contract E22 asserts.
type Played struct {
	Status     int
	RetryAfter int // seconds; set on 429 only
	Body       string
}

// Replay drives a workload script through the full serving pipeline —
// plan cache, per-client budgets, queue admission, shared-scan
// batching, execution from virtual dispatch — without HTTP framing:
// arrivals are offered at their scripted virtual times and the loop
// advances event by event, executions overlapping exactly as the
// virtual machine overlaps them, and the final RunToIdle joins whatever
// is still running.  DML arrivals route through the write pipeline
// (synchronous execution, budget gate, auto-merge offers), so a mixed
// script exercises reads over a moving delta with background merges
// interleaved.  It is the deterministic harness behind E22 and the
// serving benchmark; the httptest paths cover the same pipeline through
// real net/http.  Replay drives the loop directly (the Clock is not
// consulted), so it must not be interleaved with live HTTP traffic on
// the same server.
//
//lint:allow reach: simulated-clock harness of E22 and the server determinism tests
func (s *Server) Replay(script *workload.Script) []Played {
	out := make([]Played, len(script.Arrivals))
	tickets := make([]*core.Ticket, len(script.Arrivals))
	rejected := func(rerr *reqError) Played {
		return Played{Status: rerr.status, RetryAfter: rerr.retryAfter,
			Body: string(errBody(rerr.code, rerr.msg, rerr.retryAfter))}
	}
	for i, a := range script.Arrivals {
		s.mu.Lock()
		s.deliverLocked(s.loop.AdvanceTo(a.At))
		if isWriteStmt(a.SQL) {
			// DML completes synchronously at its arrival instant; only
			// the merge it may trigger flows through the scheduler.
			if res, rerr := s.execWriteLocked(a.At, a.Client, a.SQL); rerr != nil {
				out[i] = rejected(rerr)
			} else {
				status, body := renderWrite(res)
				out[i] = Played{Status: status, Body: string(body)}
			}
		} else if t, _, rerr := s.admitLocked(a.At, a.Client, a.SQL, ""); rerr != nil {
			out[i] = rejected(rerr)
		} else {
			tickets[i] = t
		}
		s.deliverLocked(s.loop.React())
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.deliverLocked(s.loop.RunToIdle())
	s.mu.Unlock()
	// Every admitted ticket has settled; which call handed it over (an
	// event above, or the execution-finished hook) does not matter here.
	for i, t := range tickets {
		if t != nil {
			status, body := renderTicket(t)
			out[i] = Played{Status: status, Body: string(body)}
		}
	}
	return out
}
