package experiments

import (
	"fmt"
	"io"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/experiments/shard"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/vec"
)

func init() {
	register(Experiment{
		ID:    "E25",
		Title: "value-range sharding: zone pruning over a cut table (extension)",
		Claim: "cutting a table into value-range shards keeps the determinism contract — relations byte-identical to the unsharded layout at every shard count and DOP, counters DOP-invariant at fixed shard count — while a skewed predicate's bytes-touched/op drops superlinearly with the shard count (pruned shards never stream AND the surviving shards pack a narrower key domain); the served engine keeps one table shape, so the cut layout lives beside this experiment until a workload earns it (\"energy efficiency as a key optimization goal\", §I, extended to physical layout)",
		Run:   runE25,
	})
}

// E25Row is one shard-count arm of the skewed-probe sweep.
type E25Row struct {
	Shards       int
	Rows         int    // probe result cardinality (identical at every k)
	ShardsPruned int    // shards discarded on bounds alone
	BytesTouched uint64 // DRAM bytes the probe streamed after pruning
	J            energy.Joules
}

// E25Result is the full experiment outcome.
type E25Result struct {
	Rows []E25Row
}

// e25IdentityQ is the relation-rich probe for the byte-identity checks;
// e25SkewQ is the skewed point probe whose bytes-touched the shard
// ladder measures (one mid-cold key: finer cuts both prune more shards
// and bit-pack the survivor's narrower key domain tighter).
const (
	e25IdentityQ = "SELECT custkey, COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey < 40 GROUP BY custkey"
	e25SkewQ     = "SELECT COUNT(*) AS n, SUM(day) AS d FROM orders WHERE custkey = 1000"
)

// e25Probe plans and runs one probe query over the flat engine at one
// DOP: the reference every cut layout must reproduce.
func e25Probe(e *core.Engine, qs string, dop int) (*exec.Relation, error) {
	q, err := sql.Parse(qs)
	if err != nil {
		return nil, err
	}
	node, _, err := e.Plan(q, opt.MinEnergy)
	if err != nil {
		return nil, err
	}
	ctx := e25Ctx(dop)
	ctx.SnapTS = e.Txn().SnapshotTS()
	return node.Run(ctx)
}

func e25Ctx(dop int) *exec.Ctx {
	ctx := exec.NewCtx()
	ctx.Lease = exec.NewLease(dop)
	return ctx
}

// The two probes over a cut table, written as the planner writes them
// over the flat one.
var (
	e25Aggs      = []expr.AggSpec{{Func: expr.AggCount, As: "n"}, {Func: expr.AggSum, Col: "day", As: "d"}}
	e25IdentityP = []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(40)}}
	e25SkewP     = []expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(1000)}}
)

// e25Identity runs the grouped probe over the sequence-merged read of the
// cut table: the aggregation sees the flat row order, so its groups come
// out in the flat layout's order.
func e25Identity(st *shard.Table, dop int) (*exec.Relation, energy.Counters, error) {
	ctx := e25Ctx(dop)
	rel, err := (&exec.HashAgg{
		Child:   &shard.Scan{Source: st, Select: []string{"custkey", "day"}, Preds: e25IdentityP},
		GroupBy: []string{"custkey"},
		Aggs:    e25Aggs,
	}).Run(ctx)
	return rel, ctx.Meter.Snapshot(), err
}

// e25Skew runs the global skewed probe shard by shard: pruned shards
// charge their logical rows and stream nothing, every surviving shard
// folds its selection straight off its compressed segments (the fused
// aggregate over a flat exec.Scan), and the partial counts and sums add
// up — a lone survivor's row is the answer as it stands.
func e25Skew(st *shard.Table, dop int) (*exec.Relation, energy.Counters, error) {
	ctx := e25Ctx(dop)
	var n, d int64
	rows := 0
	err := shard.Each(ctx, st.Shards(), e25SkewP, func(_ int, sh *colstore.Table) error {
		part, err := (&exec.HashAgg{
			Child: &exec.Scan{Source: sh, Select: []string{"custkey", "day"}, Preds: e25SkewP},
			Aggs:  e25Aggs,
		}).Run(ctx)
		if err != nil {
			return err
		}
		if part.N == 1 {
			n, d, rows = n+part.Cols[0].I[0], d+part.Cols[1].I[0], 1
		}
		return nil
	})
	rel := &exec.Relation{N: rows, Cols: []exec.Col{
		{Name: "n", Type: colstore.Int64, I: []int64{n}[:rows]},
		{Name: "d", Type: colstore.Int64, I: []int64{d}[:rows]},
	}}
	return rel, ctx.Meter.Snapshot(), err
}

// E25Sweep probes the flat layout through the planner and every shard
// count through the cut layout, enforcing the determinism contract
// inline: relations byte-identical to the unsharded layout at every
// shard count × DOP, counters DOP-invariant at fixed shard count
// (counters are NOT compared across shard counts — pruning changes the
// bytes, which is the measured effect).
func E25Sweep(nRows int, shardCounts, dops []int) (*E25Result, error) {
	flat, err := core.OrdersEngine(nRows)
	if err != nil {
		return nil, err
	}
	model := flat.Model()
	flatIdent, err := e25Probe(flat, e25IdentityQ, 1)
	if err != nil {
		return nil, err
	}
	flatSkew, err := e25Probe(flat, e25SkewQ, 1)
	if err != nil {
		return nil, err
	}
	if flatIdent.N == 0 || flatSkew.N == 0 {
		return nil, fmt.Errorf("experiments: E25 probe selected nothing")
	}
	orders, err := flat.Catalog().Table("orders")
	if err != nil {
		return nil, err
	}

	res := &E25Result{}
	for _, k := range shardCounts {
		st, err := shard.Cut(orders, "custkey", k)
		if err != nil {
			return nil, err
		}
		if err := st.Seal(); err != nil {
			return nil, err
		}
		// Determinism contract, both probe shapes: relation identical to
		// the flat layout at every DOP, counters DOP-invariant.
		var skewW energy.Counters
		for _, probe := range []struct {
			run  func(*shard.Table, int) (*exec.Relation, energy.Counters, error)
			want *exec.Relation
			skew bool
		}{{e25Identity, flatIdent, false}, {e25Skew, flatSkew, true}} {
			var refW energy.Counters
			for i, dop := range dops {
				rel, w, perr := probe.run(st, dop)
				if perr != nil {
					return nil, perr
				}
				if !rel.Equal(probe.want) {
					return nil, fmt.Errorf("experiments: E25 relation diverged from flat layout at k=%d DOP %d", k, dop)
				}
				if i == 0 {
					refW = w
					if probe.skew {
						skewW = w
					}
				} else if w != refW {
					return nil, fmt.Errorf("experiments: E25 attributed counters diverged at k=%d DOP %d", k, dop)
				}
			}
		}
		pruned := 0
		for _, keep := range shard.Prune(st.Shards(), e25SkewP) {
			if !keep {
				pruned++
			}
		}
		res.Rows = append(res.Rows, E25Row{
			Shards:       k,
			Rows:         flatSkew.N,
			ShardsPruned: pruned,
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
	fmt.Fprintln(w, "\nshape: relations are byte-identical to the unsharded layout at every")
	fmt.Fprintln(w, "shard count and DOP; only the bytes a skewed probe touches drop.")
	return nil
}
