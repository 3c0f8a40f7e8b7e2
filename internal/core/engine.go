// Package core is the engine facade: the public API a downstream
// application uses.  It wires the column store, optimizer, SQL
// front end, and energy model into one object with both halves of the
// paper's "hybrid query language": declarative SQL via Engine.Query and
// the procedural builder via Engine.From(...).  Every query returns an
// energy report next to its result.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Engine is an energy-aware in-memory column-store database.
type Engine struct {
	mu sync.Mutex
	// latch is the data latch.  MVCC already fixes WHAT a read sees; the
	// latch only keeps a delta append or a merge from moving memory
	// under a running scan: query executions hold it shared (taken by
	// Loop at dispatch), and so does planning (Engine.plan); ExecDML,
	// Seal, Recover and maintenance executions hold it exclusively.  It
	// is never taken while holding mu or reads' mutex; Seal takes reads'
	// mutex under it, briefly.
	latch sync.RWMutex
	// reads counts the snapshots of the reads admitted on any loop and not
	// yet settled: a read takes its snapshot at admission but the latch
	// only at dispatch, so Seal merges at the oldest of them.  (A merge
	// ticket's horizon is its own loop's, oldestLiveSnap; Seal belongs to
	// no loop.)
	reads snapshots
	cat   *opt.Catalog
	model *energy.Model
	cm    *opt.CostModel
	// log and txm are the write path: DML commits through the transaction
	// manager's MVCC clock and the REDO log's group-commit window.
	log *wal.Log
	txm *txn.Manager
}

// Option configures Open.
type Option func(*Engine)

// WithLog attaches an existing REDO log instead of a fresh one — the
// crash-recovery path: open a new engine over the survivor's log,
// recreate the schema, and Recover.
//
//lint:allow reach: README crash-recovery API, ROADMAP item 9; core recovery tests
func WithLog(log *wal.Log) Option { return func(e *Engine) { e.log = log } }

// Open creates an engine.
func Open(opts ...Option) *Engine {
	m := energy.DefaultModel()
	e := &Engine{cat: opt.NewCatalog(), model: m, cm: opt.NewCostModel(m), reads: snapshots{live: map[int64]int{}}}
	for _, o := range opts {
		o(e)
	}
	if e.log == nil {
		e.log = wal.NewLog(wal.DefaultConfig())
	}
	e.txm = txn.NewManager(e.log, wal.Local, 200*time.Microsecond)
	// Timestamp 1 is a fresh table's first load's (a Writer stamps its
	// table's last timestamp plus one), so the clock starts there: no read
	// is handed snapshot 0, which a table reads as every row there is, so
	// every commit after a read's admission lies above its snapshot.
	e.txm.ObserveTS(1)
	return e
}

// Txn exposes the transaction manager (snapshot clock, group-commit
// stats).
func (e *Engine) Txn() *txn.Manager { return e.txm }

// Log exposes the engine's REDO log (crash simulation in tests).
//
//lint:allow reach: README crash-recovery API, ROADMAP item 9; core recovery tests
func (e *Engine) Log() *wal.Log { return e.log }

// Model exposes the engine's energy model (for experiment harnesses).
func (e *Engine) Model() *energy.Model { return e.model }

// Catalog exposes the optimizer catalog (for experiment harnesses).
func (e *Engine) Catalog() *opt.Catalog { return e.cat }

// CreateTable creates and registers an empty table: the returned table
// is the live table callers load.
func (e *Engine) CreateTable(name string, schema colstore.Schema) (*colstore.Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.cat.Table(name); err == nil {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	t := colstore.NewTable(name, schema)
	e.cat.Add(t)
	return t, nil
}

// Seal merges the named table's delta into its compressed main and
// refreshes its optimizer statistics.  Call it after bulk loads.  With no
// read in flight — load time — the merge is at horizon 0: every committed
// row, every tombstone.  Otherwise it is at the oldest snapshot a read
// admitted on any loop still holds, so that read keeps its view.  It
// holds the data latch exclusively, as any merge does.
func (e *Engine) Seal(name string) error {
	e.latch.Lock()
	defer e.latch.Unlock()
	t, err := e.cat.Table(name)
	if err != nil {
		return err
	}
	if _, err := t.Merge(e.reads.oldest()); err != nil {
		return err
	}
	// A load of several Writer batches stamps the table past the commit
	// clock; reads admitted from now on see all of it.
	e.txm.ObserveTS(t.LastTS())
	return e.cat.Refresh(name)
}

// snapshots is a multiset of the snapshots reads hold.
type snapshots struct {
	mu   sync.Mutex
	live map[int64]int
}

// pin takes the commit clock's snapshot for a read and counts it live.
// Taking it under mu orders it against oldest: a read either counts for
// a concurrent Seal or snapshots after it.
func (s *snapshots) pin(clock *txn.Manager) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := clock.SnapshotTS()
	s.live[ts]++
	return ts
}

// unpin releases a snapshot pin returned.
func (s *snapshots) unpin(ts int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live[ts]--; s.live[ts] == 0 {
		delete(s.live, ts)
	}
}

// oldest returns the oldest pinned snapshot, 0 when there is none.
func (s *snapshots) oldest() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var o int64
	//lint:allow determinism: a minimum over the pinned set does not depend on visit order
	for ts := range s.live {
		if o == 0 || ts < o {
			o = ts
		}
	}
	return o
}

// Result carries a query's rows plus its measured and modeled costs.
type Result struct {
	Rel      *exec.Relation
	Elapsed  time.Duration    // measured wall time
	Work     energy.Counters  // work counters from all operators
	Energy   energy.Breakdown // model-accounted energy
	DOP      int              // degree of parallelism the query ran at
	PlanInfo *opt.PlanInfo
}

// Joules returns the modeled total energy of the query.
func (r *Result) Joules() energy.Joules { return r.Energy.Total() }

// Query parses and executes SQL, scheduled under opt.MinTime.
func (e *Engine) Query(text string) (*Result, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return e.Run(q)
}

// Run plans and executes a logical query (the shared form produced by
// the SQL parser and the builder), scheduled under opt.MinTime.
//
// It is the engine's one execution entry: the query is a ticket on a
// private one-shot Loop — every core the process has, arbitrated, no
// batching, unbounded queue — so a lone query is admitted, granted
// cores, executed and billed by exactly the code that serves traffic.
func (e *Engine) Run(q *opt.Query) (*Result, error) {
	l := e.NewLoop(SchedulerConfig{Budget: runtime.GOMAXPROCS(0), Arbitrate: true})
	t := l.Offer(0, q, opt.MinTime)
	start := time.Now()          //lint:allow determinism: Result.Elapsed is a reporting-only wall measure; energy uses modeled CPUTime
	l.React()                    // dispatch: the execution starts here
	l.RunToIdle()                // and is joined here
	elapsed := time.Since(start) //lint:allow determinism: Result.Elapsed is a reporting-only wall measure; energy uses modeled CPUTime
	if t.Err != nil {
		// The loop prefixes failures with the ticket ID; a lone query's
		// caller gets the planner's or operator's own error.
		return nil, errors.Unwrap(t.Err)
	}
	return &Result{
		Rel:      t.Rel,
		Elapsed:  elapsed,
		Work:     t.Work,
		Energy:   t.Energy,
		DOP:      t.DOP,
		PlanInfo: t.PlanInfo,
	}, nil
}

// bill prices executed work — the one place the engine turns counters
// into joules, for queries, maintenance and DML alike: dynamic energy and
// active-core static power over the modeled CPU time.
func (e *Engine) bill(work energy.Counters) energy.Breakdown {
	b := e.model.DynamicEnergy(work, e.cm.PState)
	b.Static = energy.StaticEnergy(e.cm.PState.Active, e.model.CPUTime(work, e.cm.PState))
	return b
}

// Explain returns the physical plan for SQL without executing it.
func (e *Engine) Explain(text string) (string, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return "", err
	}
	_, info, err := e.plan(q)
	if err != nil {
		return "", err
	}
	return info.Explain, nil
}

// Plan lowers a logical query onto its physical operator tree at the
// engine's cost model, without executing it — the serving front end's
// plan-cache fill path.  The returned node is safe to re-run, and to run
// concurrently with itself (operators keep no state outside a run's Ctx).
// The objective no longer changes the plan (there is one access path); it
// is accepted for callers that still pass one, and only ever sets a
// query's scheduler goal, at the offer.
func (e *Engine) Plan(q *opt.Query, _ opt.Objective) (exec.Node, *opt.PlanInfo, error) {
	return e.plan(q)
}

// plan is Catalog.Plan under the data latch, shared: a scan-fed
// aggregation is priced off the live segment layout (exec.FusedAggWork),
// which a merge or a delta append would otherwise move under it.
func (e *Engine) plan(q *opt.Query) (exec.Node, *opt.PlanInfo, error) {
	e.latch.RLock()
	defer e.latch.RUnlock()
	return e.cat.Plan(q, e.cm)
}

// Format renders a relation as an aligned text table (CLI/examples).
func Format(rel *exec.Relation) string {
	if rel == nil {
		return ""
	}
	names := rel.ColNames()
	widths := make([]int, len(names))
	cells := make([][]string, rel.N)
	for i := range names {
		widths[i] = len(names[i])
	}
	for r := 0; r < rel.N; r++ {
		row := rel.Row(r)
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := fmt.Sprintf("%v", v)
			if f, ok := v.(float64); ok {
				s = fmt.Sprintf("%.2f", f)
			}
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, n := range names {
		fmt.Fprintf(&b, "%-*s  ", widths[i], n)
	}
	b.WriteByte('\n')
	for i := range names {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for r := 0; r < rel.N; r++ {
		for i, s := range cells[r] {
			fmt.Fprintf(&b, "%-*s  ", widths[i], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
