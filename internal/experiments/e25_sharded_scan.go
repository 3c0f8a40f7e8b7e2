package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
)

func init() {
	register(Experiment{
		ID:    "E25",
		Title: "value-range sharding: zone pruning, co-partitioning, and energy-priced rebalance (extension)",
		Claim: "cutting a table into value-range shards keeps the determinism contract — relations byte-identical to the unsharded layout at every shard count and DOP, counters DOP-invariant at fixed shard count — while a skewed predicate's bytes-touched/op drops superlinearly with the shard count (pruned shards never stream AND the surviving shards pack a narrower key domain), and the shard rebalance runs as a scheduler-admitted min-energy background query that defers to foreground traffic (\"energy efficiency as a key optimization goal\", §I, extended to physical layout)",
		Run:   runE25,
	})
}

// E25Row is one shard-count arm of the skewed-probe sweep.
type E25Row struct {
	Shards       int
	Rows         int    // probe result cardinality (identical at every k)
	ShardsPruned int    // shards the planner discarded on bounds alone
	BytesTouched uint64 // DRAM bytes the probe streamed after pruning
	J            energy.Joules
}

// E25Result is the full experiment outcome.
type E25Result struct {
	Rows              []E25Row
	RebalanceDeferred bool // rebalance finished after the same-instant foreground query
	RebalanceMoved    int64
	RebalanceJ        energy.Joules
	RebalanceWork     energy.Counters
}

// e25IdentityQ is the relation-rich probe for the byte-identity checks;
// e25SkewQ is the skewed point probe whose bytes-touched the shard
// ladder measures (one mid-cold key: finer cuts both prune more shards
// and bit-pack the survivor's narrower key domain tighter).
const (
	e25IdentityQ = "SELECT custkey, COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey < 40 GROUP BY custkey"
	e25SkewQ     = "SELECT COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey = 1000"
)

// e25Probe plans and runs one probe query at one DOP.
func e25Probe(e *core.Engine, qs string, dop int) (*exec.Relation, energy.Counters, *opt.PlanInfo, error) {
	q, err := sql.Parse(qs)
	if err != nil {
		return nil, energy.Counters{}, nil, err
	}
	node, info, err := e.Plan(q, opt.MinEnergy)
	if err != nil {
		return nil, energy.Counters{}, nil, err
	}
	ctx := exec.NewCtx()
	ctx.Lease = exec.NewLease(dop)
	ctx.SnapTS = e.Txn().SnapshotTS()
	rel, err := node.Run(ctx)
	if err != nil {
		return nil, energy.Counters{}, nil, err
	}
	return rel, ctx.Meter.Snapshot(), info, nil
}

// e25Engine builds the standard orders engine cut into k shards.
func e25Engine(n, k int) (*core.Engine, error) {
	e, err := core.OrdersEngine(n)
	if err != nil {
		return nil, err
	}
	if _, err := e.ShardTable("orders", "custkey", k); err != nil {
		return nil, err
	}
	if err := e.Seal("orders"); err != nil {
		return nil, err
	}
	return e, nil
}

// E25Sweep probes the skewed aggregation over the flat layout and over
// every shard count, enforcing the determinism contract inline:
// relations byte-identical to the unsharded layout at every shard count
// × DOP, counters DOP-invariant at fixed shard count (counters are NOT
// compared across shard counts — pruning changes the bytes, which is
// the measured effect).  It then reruns the shard-count ladder under a
// write burst and drives the rebalance through the scheduling loop as a
// background min-energy query racing a same-instant foreground probe.
func E25Sweep(nRows int, shardCounts, dops []int) (*E25Result, error) {
	flat, err := core.OrdersEngine(nRows)
	if err != nil {
		return nil, err
	}
	model := flat.Model()
	flatIdent, _, _, err := e25Probe(flat, e25IdentityQ, 1)
	if err != nil {
		return nil, err
	}
	flatSkew, _, _, err := e25Probe(flat, e25SkewQ, 1)
	if err != nil {
		return nil, err
	}
	if flatIdent.N == 0 || flatSkew.N == 0 {
		return nil, fmt.Errorf("experiments: E25 probe selected nothing")
	}

	res := &E25Result{}
	for _, k := range shardCounts {
		e, err := e25Engine(nRows, k)
		if err != nil {
			return nil, err
		}
		// Determinism contract, both probe shapes: relation identical to
		// the flat layout at every DOP, counters DOP-invariant.
		var skewW energy.Counters
		var skewInfo *opt.PlanInfo
		for _, probe := range []struct {
			q    string
			want *exec.Relation
		}{{e25IdentityQ, flatIdent}, {e25SkewQ, flatSkew}} {
			var refW energy.Counters
			for i, dop := range dops {
				rel, w, info, perr := e25Probe(e, probe.q, dop)
				if perr != nil {
					return nil, perr
				}
				if !rel.Equal(probe.want) {
					return nil, fmt.Errorf("experiments: E25 relation diverged from flat layout at k=%d DOP %d", k, dop)
				}
				if i == 0 {
					refW = w
					if probe.q == e25SkewQ {
						skewW, skewInfo = w, info
					}
				} else if w != refW {
					return nil, fmt.Errorf("experiments: E25 attributed counters diverged at k=%d DOP %d", k, dop)
				}
			}
		}
		// A lone shard is never whole-shard pruned, so a k=1 plan counts none.
		if k > 1 && skewInfo.ShardsScanned+skewInfo.ShardsPruned != k {
			return nil, fmt.Errorf("experiments: E25 plan covered %d+%d of %d shards",
				skewInfo.ShardsScanned, skewInfo.ShardsPruned, k)
		}
		res.Rows = append(res.Rows, E25Row{
			Shards:       k,
			Rows:         flatSkew.N,
			ShardsPruned: skewInfo.ShardsPruned,
			BytesTouched: skewW.BytesReadDRAM,
			J:            model.DynamicEnergy(skewW, model.Core.MaxPState()).Total(),
		})
	}
	// The headline shape: bytes-touched/op drops strictly at every step
	// of the shard ladder, and SUPERLINEARLY end to end — touched at the
	// finest cut beats flat/k, because pruning removes whole shards AND
	// the survivor bit-packs a narrower key domain than the flat layout
	// ever could.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].BytesTouched >= res.Rows[i-1].BytesTouched {
			return nil, fmt.Errorf("experiments: E25 bytes-touched not monotone: k=%d touched %d, k=%d touched %d",
				res.Rows[i-1].Shards, res.Rows[i-1].BytesTouched, res.Rows[i].Shards, res.Rows[i].BytesTouched)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if len(res.Rows) > 1 && last.BytesTouched*uint64(last.Shards) >= first.BytesTouched*uint64(first.Shards) {
		return nil, fmt.Errorf("experiments: E25 bytes-touched not superlinear: k=%d touched %d, k=%d touched %d",
			first.Shards, first.BytesTouched, last.Shards, last.BytesTouched)
	}

	// Rebalance as a query: a write burst skews the cuts, then the
	// rebalance — offered FIRST — must still finish after the foreground
	// probe admitted at the same instant, and leave results untouched.
	kMax := shardCounts[len(shardCounts)-1]
	e, err := e25Engine(nRows, kMax)
	if err != nil {
		return nil, err
	}
	at := time.Millisecond
	for i := 0; i < 512; i++ {
		st, perr := sql.ParseStmt(fmt.Sprintf(
			"INSERT INTO orders VALUES (%d, %d, 'ASIA', %d.5, 15001)", 3_000_000+i, i%40, i%100))
		if perr != nil {
			return nil, perr
		}
		if _, derr := e.ExecDML(st.DML, at); derr != nil {
			return nil, derr
		}
		at += 100 * time.Microsecond
	}
	pre, _, _, err := e25Probe(e, e25IdentityQ, 2)
	if err != nil {
		return nil, err
	}
	loop := e.NewLoop(core.SchedulerConfig{Budget: 1, Arbitrate: true})
	rt := loop.OfferRebalance(0, "orders")
	if rt.Rejected {
		return nil, fmt.Errorf("experiments: E25 rebalance rejected: %v", rt.Err)
	}
	q, err := sql.Parse("SELECT COUNT(*) FROM orders WHERE custkey = 3")
	if err != nil {
		return nil, err
	}
	fg := loop.Offer(0, q, opt.MinEnergy)
	if fg.Rejected {
		return nil, fmt.Errorf("experiments: E25 foreground probe rejected")
	}
	loop.React()
	loop.RunToIdle()
	if rt.Err != nil || fg.Err != nil {
		return nil, fmt.Errorf("experiments: E25 loop errors: rebalance=%v fg=%v", rt.Err, fg.Err)
	}
	res.RebalanceDeferred = rt.Finish >= fg.Finish
	res.RebalanceJ = rt.Energy.Total()
	res.RebalanceWork = rt.Work
	if rt.Rel == nil || rt.Rel.N != 1 {
		return nil, fmt.Errorf("experiments: E25 rebalance returned no receipt")
	}
	if mc, cerr := rt.Rel.Col("rows_moved"); cerr == nil && len(mc.I) == 1 {
		res.RebalanceMoved = mc.I[0]
	}
	post, _, _, err := e25Probe(e, e25IdentityQ, 2)
	if err != nil {
		return nil, err
	}
	if !post.Equal(pre) {
		return nil, fmt.Errorf("experiments: E25 rebalance changed the probe relation")
	}
	return res, nil
}

func runE25(w io.Writer) error {
	res, err := E25Sweep(1<<18, []int{1, 4, 16}, []int{1, 2, 8})
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "shards\trows\tpruned\tMB-touched/op\tJ/op\tvs-flat")
	base := float64(res.Rows[0].BytesTouched)
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.3f\t%.4f\t%.1f%%\n",
			r.Shards, r.Rows, r.ShardsPruned, float64(r.BytesTouched)/1e6, float64(r.J),
			100*float64(r.BytesTouched)/base)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nrebalance billed %.3f J as a background min-energy submission\n", float64(res.RebalanceJ))
	fmt.Fprintf(w, "(deferred behind foreground traffic: %v; rows re-routed: %d).\n",
		res.RebalanceDeferred, res.RebalanceMoved)
	fmt.Fprintln(w, "shape: relations are byte-identical to the unsharded layout at every")
	fmt.Fprintln(w, "shard count and DOP; only the bytes a skewed probe touches drop.")
	return nil
}
