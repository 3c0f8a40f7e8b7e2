package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
)

func init() {
	register(Experiment{
		ID:    "E23",
		Title: "writable main/delta store with energy-priced background merge (extension)",
		Claim: "the HANA-style main/delta split keeps the determinism contract under writes: a scan over sealed main + live delta returns byte-identical relations and attributed counters at every DOP, the delta merge runs as a scheduler-admitted min-energy background query that defers to foreground traffic, and re-sealing visibly lowers the bytes a query touches (\"energy efficiency as a key optimization goal\", §I, extended to the write path)",
		Run:   runE23,
	})
}

// E23Row is one DOP arm of the pre/post-merge probe sweep.
type E23Row struct {
	DOP       int
	Rows      int    // probe result cardinality (identical pre/post)
	PreBytes  uint64 // DRAM bytes touched per probe over main+delta
	PostBytes uint64 // same probe after the background merge
}

// E23Result is the full experiment outcome.
type E23Result struct {
	Rows          []E23Row
	DeltaRowsPre  int           // delta size the probes scanned
	MergeDeferred bool          // merge finished after the foreground query despite arriving first
	MergeJ        energy.Joules // the merge ticket's billed energy
	MergeWork     energy.Counters
}

// e23Probe runs the probe query at a fixed DOP against the engine's
// current snapshot and returns the relation plus attributed counters.
func e23Probe(e *core.Engine, dop int) (*exec.Relation, energy.Counters, error) {
	q, err := sql.Parse("SELECT COUNT(*) AS n, SUM(amount) AS rev FROM orders WHERE custkey < 40")
	if err != nil {
		return nil, energy.Counters{}, err
	}
	node, _, err := e.Plan(q, opt.MinEnergy)
	if err != nil {
		return nil, energy.Counters{}, err
	}
	ctx := exec.NewCtx()
	ctx.Lease = exec.NewLease(dop)
	ctx.SnapTS = e.SnapshotTS()
	rel, err := node.Run(ctx)
	if err != nil {
		return nil, energy.Counters{}, err
	}
	return rel, ctx.Meter.Snapshot(), nil
}

// E23Sweep loads nRows orders, applies nWrites DML statements (inserts
// plus updates and deletes, so the delta carries appends AND
// tombstones), probes at every DOP, then merges through the scheduling
// loop as a background min-energy query and probes again.
func E23Sweep(nRows, nWrites int, dops []int) (*E23Result, error) {
	e, err := core.OrdersEngine(nRows)
	if err != nil {
		return nil, err
	}
	at := time.Millisecond
	exec1 := func(stmt string) error {
		st, perr := sql.ParseStmt(stmt)
		if perr != nil {
			return perr
		}
		_, derr := e.ExecDML(st.DML, at)
		at += 100 * time.Microsecond
		return derr
	}
	for i := 0; i < nWrites; i++ {
		if err := exec1(fmt.Sprintf(
			"INSERT INTO orders VALUES (%d, %d, 'ASIA', %d.5, 15001)",
			2_000_000+i, i%40, i%100)); err != nil {
			return nil, err
		}
	}
	if err := exec1("UPDATE orders SET amount = 1.5 WHERE custkey = 7 AND amount > 5000.0"); err != nil {
		return nil, err
	}
	if err := exec1("DELETE FROM orders WHERE custkey = 11 AND amount > 8000.0"); err != nil {
		return nil, err
	}

	res := &E23Result{}
	tab, err := e.Catalog().Table("orders")
	if err != nil {
		return nil, err
	}
	res.DeltaRowsPre = tab.DeltaRows()
	if res.DeltaRowsPre == 0 {
		return nil, fmt.Errorf("experiments: E23 delta is empty before merge")
	}

	type arm struct {
		rel *exec.Relation
		w   energy.Counters
	}
	probeAll := func() ([]arm, error) {
		arms := make([]arm, len(dops))
		for i, dop := range dops {
			rel, w, perr := e23Probe(e, dop)
			if perr != nil {
				return nil, perr
			}
			arms[i] = arm{rel, w}
			if i > 0 {
				if !reflect.DeepEqual(arms[i].rel, arms[0].rel) {
					return nil, fmt.Errorf("experiments: E23 relation diverged at DOP %d", dop)
				}
				if arms[i].w != arms[0].w {
					return nil, fmt.Errorf("experiments: E23 attributed counters diverged at DOP %d", dop)
				}
			}
		}
		return arms, nil
	}
	pre, err := probeAll()
	if err != nil {
		return nil, err
	}

	// Merge as a query: offered FIRST, yet the foreground probe admitted
	// at the same instant must finish before it — background work defers
	// under load and races to idle after.
	loop := e.NewLoop(core.SchedulerConfig{Budget: 1, Arbitrate: true})
	mt := loop.OfferMerge(0, "orders")
	if mt.Rejected {
		return nil, fmt.Errorf("experiments: E23 merge rejected: %v", mt.Err)
	}
	q, err := sql.Parse("SELECT COUNT(*) FROM orders WHERE custkey = 3")
	if err != nil {
		return nil, err
	}
	fg := loop.Offer(0, q, opt.MinEnergy)
	if fg.Rejected {
		return nil, fmt.Errorf("experiments: E23 foreground probe rejected")
	}
	loop.React()
	loop.RunToIdle()
	if mt.Err != nil || fg.Err != nil {
		return nil, fmt.Errorf("experiments: E23 loop errors: merge=%v fg=%v", mt.Err, fg.Err)
	}
	res.MergeDeferred = mt.Finish >= fg.Finish
	res.MergeJ = mt.Energy.Total()
	res.MergeWork = mt.Work
	if tab.DeltaRows() != 0 {
		return nil, fmt.Errorf("experiments: E23 merge left %d delta rows", tab.DeltaRows())
	}

	post, err := probeAll()
	if err != nil {
		return nil, err
	}
	for i := range dops {
		if !post[i].rel.Equal(pre[i].rel) {
			return nil, fmt.Errorf("experiments: E23 merge changed the probe relation at DOP %d", dops[i])
		}
		if post[i].w.BytesReadDRAM >= pre[i].w.BytesReadDRAM {
			return nil, fmt.Errorf("experiments: E23 merge did not lower bytes/op at DOP %d: pre=%d post=%d",
				dops[i], pre[i].w.BytesReadDRAM, post[i].w.BytesReadDRAM)
		}
		res.Rows = append(res.Rows, E23Row{
			DOP:       dops[i],
			Rows:      pre[i].rel.N,
			PreBytes:  pre[i].w.BytesReadDRAM,
			PostBytes: post[i].w.BytesReadDRAM,
		})
	}
	return res, nil
}

func runE23(w io.Writer) error {
	res, err := E23Sweep(1<<18, 4096, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "dop\trows\tpre-merge-MB/op\tpost-merge-MB/op\tsaved")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.3f\t%.1f%%\n",
			r.DOP, r.Rows, float64(r.PreBytes)/1e6, float64(r.PostBytes)/1e6,
			100*(1-float64(r.PostBytes)/float64(r.PreBytes)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndelta scanned pre-merge: %d rows; merge billed %.3f J as a background\n",
		res.DeltaRowsPre, float64(res.MergeJ))
	fmt.Fprintf(w, "min-energy submission (deferred behind foreground traffic: %v).\n", res.MergeDeferred)
	fmt.Fprintln(w, "shape: relations and attributed counters are byte-identical at every DOP")
	fmt.Fprintln(w, "before and after the merge; only the bytes touched per probe drop.")
	return nil
}
