package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/sql"
	"repro/internal/txn"
)

// POST /v1/write is the DML door: INSERT appends to the target table's
// delta, UPDATE/DELETE tombstone through MVCC, and everything commits
// through the REDO log's group-commit window at the arrival instant.
// Writes are admission-gated by the same per-client energy budgets as
// queries — charging the catalog-statistics estimate, never the
// measured bill, so 402s stay schedule-invariant — and a table whose
// delta grows past Config.MergeDeltaRows gets a background merge
// offered on its behalf.

// writeRequest is the POST /v1/write body.
type writeRequest struct {
	SQL    string `json:"sql"`
	Client string `json:"client,omitempty"`
}

// writeResponse is the 200 body: schedule-invariant facts only (commit
// timestamps are logical).  Flush outcome and latency depend on how the
// arrival landed in the group-commit window, so they travel as
// X-Eimdb-* headers like every other schedule-dependent fact.
type writeResponse struct {
	Stmt    string          `json:"stmt"` // canonical SQL
	Kind    string          `json:"kind"`
	Table   string          `json:"table"`
	Matched int             `json:"matched"`
	Applied int             `json:"applied"`
	TS      int64           `json:"ts"`
	Work    energy.Counters `json:"work"`
	Energy  responseEnergy  `json:"energy"`
}

// isWriteStmt reports whether the statement's leading verb is DML —
// the replay router's cheap dispatch (the full parse happens inside
// execWriteLocked).
func isWriteStmt(text string) bool {
	f := strings.Fields(text)
	if len(f) == 0 {
		return false
	}
	switch strings.ToLower(f[0]) {
	case "insert", "update", "delete":
		return true
	}
	return false
}

// execWriteLocked runs the write pipeline for one arrival at virtual
// time `at`: parse (400), estimate + per-client budget gate (401/402),
// synchronous execution through MVCC and the WAL (409 on conflict),
// books, plan-cache invalidation, and the auto-merge check.
func (s *Server) execWriteLocked(at time.Duration, client, text string) (*core.DMLResult, *reqError) {
	st, err := sql.ParseStmt(text)
	if err != nil {
		return nil, &reqError{status: http.StatusBadRequest, code: "bad_request", msg: err.Error()}
	}
	if st.DML == nil {
		return nil, &reqError{status: http.StatusBadRequest, code: "bad_request",
			msg: "read statement on the write endpoint; POST SELECTs to /v1/query"}
	}
	est, err := s.eng.EstimateDML(st.DML)
	if err != nil {
		return nil, &reqError{status: http.StatusBadRequest, code: "bad_request", msg: err.Error()}
	}
	book, rerr := s.bookLocked(client, est.Energy)
	if rerr != nil {
		return nil, rerr
	}
	res, err := s.eng.ExecDML(st.DML, at)
	if err != nil {
		if errors.Is(err, txn.ErrConflict) {
			return nil, &reqError{status: http.StatusConflict, code: "conflict", msg: err.Error()}
		}
		return nil, &reqError{status: http.StatusBadRequest, code: "bad_request", msg: err.Error()}
	}
	if book != nil {
		book.committed += est.Energy
		book.spent += res.Energy.Total()
	}
	s.writes++
	s.invalidatePlansLocked()
	s.maybeMergeLocked(at, st.DML.Table)
	return res, nil
}

// maybeMergeLocked offers a background merge for the table once its
// delta passes the configured threshold, at most one in flight per
// table.  A rejected offer (full queue) is dropped — the next write
// retries.
func (s *Server) maybeMergeLocked(at time.Duration, table string) {
	if s.cfg.MergeDeltaRows <= 0 || s.merging[table] {
		return
	}
	st, err := s.eng.Catalog().Lookup(table)
	if err != nil || st.DeltaRows() < s.cfg.MergeDeltaRows {
		return
	}
	if tk := s.loop.OfferMerge(at, table); !tk.Rejected {
		s.merging[table] = true
	}
}

// renderWrite turns an executed write into its HTTP status and body.
func renderWrite(res *core.DMLResult) (int, []byte) {
	resp := writeResponse{
		Stmt:    res.Stmt,
		Kind:    res.Kind.String(),
		Table:   res.Table,
		Matched: res.Matched,
		Applied: res.Applied,
		TS:      res.TS,
		Work:    res.Work,
		Energy:  responseEnergy{Joules: float64(res.Joules()), Breakdown: res.Energy},
	}
	b, _ := json.Marshal(resp)
	return http.StatusOK, append(b, '\n')
}

// handleWrite is the write hot path: decode, advance the loop to the
// arrival instant, execute synchronously, react (a threshold crossing
// may have queued a merge), respond.  No parking: DML completes at its
// own arrival instant.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errBody("method_not_allowed", "POST only", 0))
		return
	}
	var req writeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errBody("bad_request", "missing sql", 0))
		return
	}
	client := r.Header.Get("X-API-Key")
	if client == "" {
		client = req.Client
	}
	now := s.clock.Now() // sampled before s.mu: the clock may not be read under it

	s.mu.Lock()
	s.deliverLocked(s.loop.AdvanceTo(now))
	res, rerr := s.execWriteLocked(now, client, req.SQL)
	s.deliverLocked(s.loop.React())
	s.pumpLocked()
	s.mu.Unlock()

	if rerr != nil {
		writeReqError(w, rerr)
		return
	}
	status, body := renderWrite(res)
	w.Header().Set("X-Eimdb-Latency", res.Latency.String())
	w.Header().Set("X-Eimdb-Flushed", fmt.Sprintf("%t", res.Flushed))
	writeJSON(w, status, body)
}
