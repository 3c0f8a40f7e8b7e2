package exec

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/energy"
)

// Ctx carries the per-query measurement state through operator execution.
//
// A Ctx is single-goroutine state with one exception: Meter is internally
// mutex-guarded, so the workers of a parallel operator (Scan, the
// parallel HashAgg phase) may call Meter.Add concurrently.  SimTime and
// OpReports must only be touched by the goroutine driving Node.Run.
type Ctx struct {
	Meter   *energy.Meter // work accumulated by every operator
	SimTime time.Duration // simulated non-CPU time (link, disk)
	// Lease is the query's core grant — the one way a Ctx is told its
	// width (the degree of parallelism, DOP).  The scheduling loop resizes
	// it while the query runs; canceling it makes parallel operators stop
	// at the next morsel boundary and return ErrCanceled.  Nil means
	// GOMAXPROCS, never canceled.
	Lease *Lease
	// SnapTS is the MVCC snapshot the query reads at: scans cover the row
	// prefix committed at or before it and mask tombstones younger than
	// it.  Zero (colstore.SnapLatest) reads everything committed so far.
	// Fixed at admission, it makes results and counters a pure function
	// of the snapshot — invariant under DOP and under writes that land
	// while the query runs.
	SnapTS    int64
	OpReports []OpReport // per-operator trace, in completion order
}

// NewCtx returns a fresh execution context.
func NewCtx() *Ctx { return &Ctx{Meter: &energy.Meter{}} }

// DOP returns the effective degree of parallelism for this query: the
// lease's current grant when a lease is attached, otherwise GOMAXPROCS.
func (c *Ctx) DOP() int {
	if c.Lease != nil {
		return c.Lease.Grant()
	}
	return runtime.GOMAXPROCS(0)
}

// Canceled reports whether the query's core lease has been revoked.
// Queries without a lease are never canceled.
func (c *Ctx) Canceled() bool { return c.Lease != nil && c.Lease.Canceled() }

// OpReport records what one operator did.
type OpReport struct {
	Label string
	Rows  int
	Work  energy.Counters
	// Probe holds a join's lookup phase's counts, the arguments its Work
	// was priced at (ProbeWork); nil on every other report.
	Probe *ProbeCounts
}

// Charge books counters for one operator (or one unit of out-of-operator
// work, such as shipping or partial-aggregate merging in internal/dist)
// into the context: the counters are added to Meter and appended to the
// OpReports trace.
//
// Convention: rows is the operator's OUTPUT row count — the rows it
// produced, not the rows it consumed (those are visible as w.TuplesIn).
//
// Charge must be called from the goroutine driving Node.Run, and its
// granularity must stay coarse: once per operator, or once per morsel
// batch in parallel operators — never per row.  Workers of a parallel
// operator do not call Charge; they merge their worker-local Counters
// into Meter once per morsel batch (Meter is mutex-guarded) and the
// coordinator records the aggregate trace entry with Trace.
func (c *Ctx) Charge(label string, rows int, w energy.Counters) {
	c.Meter.Add(w)
	c.OpReports = append(c.OpReports, OpReport{Label: label, Rows: rows, Work: w})
}

// Trace appends an OpReport without touching Meter, for parallel
// operators whose workers already merged their counters into Meter batch
// by batch.  Calling Charge instead would double-count the work.
func (c *Ctx) Trace(label string, rows int, w energy.Counters) {
	c.OpReports = append(c.OpReports, OpReport{Label: label, Rows: rows, Work: w})
}

// Node is a physical plan operator.
type Node interface {
	// Run executes the subtree and returns its materialized result.
	Run(ctx *Ctx) (*Relation, error)
	// Label names the operator (with its key parameters) for EXPLAIN.
	Label() string
	// Kids returns the operator's inputs.
	Kids() []Node
}

// fuser is implemented by the operators that can consume their child
// without materializing it.  fusion names the fused pipeline the operator
// takes over the current table state ("" = the materializing one) — the
// same eligibility answer Run acts on, so EXPLAIN and the runtime trace
// label the path that actually answers.
type fuser interface{ fusion() string }

// Explain renders the plan tree as an indented outline, marking fused
// operators with their pipeline ("HashAgg(...) [fused probe→agg]").
func Explain(n Node) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		label := n.Label()
		if f, ok := n.(fuser); ok {
			if pipeline := f.fusion(); pipeline != "" {
				label += " [" + pipeline + "]"
			}
		}
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), label)
		for _, k := range n.Kids() {
			walk(k, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
