package dist

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/netsim"
)

// Shard-granular placement: instead of cutting a table into arbitrary
// horizontal partitions per node, a value-range-sharded table places
// whole shards — round-robin by shard index, so the assignment is
// deterministic and two tables sharded on aligned cuts land their
// matching shard pairs on the same node.  The payoff over the flat
// cluster is that zone pruning happens before placement is even
// consulted: a shard disqualified by its bounds never scans AND never
// ships, so the wire cost of a skewed predicate drops with the shard
// count just like the scan cost does.

// ShardedCluster places the shards of one sharded table across nodes.
type ShardedCluster struct {
	Sharded *colstore.ShardedTable
	// NodeOf maps shard index -> node ID (round-robin; deterministic).
	NodeOf []int

	nodes int
	link  *netsim.Link
	model *energy.Model
}

// PlaceShards assigns the table's shards to nodes round-robin over one
// shared ingress link to the coordinator.
func PlaceShards(st *colstore.ShardedTable, nodes int, link *netsim.Link) (*ShardedCluster, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("dist: cannot place shards on %d nodes", nodes)
	}
	sc := &ShardedCluster{
		Sharded: st,
		NodeOf:  make([]int, st.NumShards()),
		nodes:   nodes,
		link:    link,
		model:   energy.DefaultModel(),
	}
	for i := range sc.NodeOf {
		sc.NodeOf[i] = i % nodes
	}
	return sc, nil
}

// ShardReport extends the wire/time/energy account with the pruning
// decision: pruned shards scanned nothing and shipped nothing.
type ShardReport struct {
	Report
	ShardsScanned int
	ShardsPruned  int
}

// RunAgg executes the grouped filtered aggregation under shard-granular
// pushdown: every surviving shard evaluates the predicates and a partial
// aggregate on its node and ships only its group/sum pairs; the
// coordinator merges partials in shard order.  The merged relation is
// byte-identical to the flat cluster's pushdown result — pruning only
// removes shards whose bounds cannot match.
func (sc *ShardedCluster) RunAgg(q AggQuery) (*exec.Relation, ShardReport, error) {
	schema := sc.Sharded.Schema()
	for _, p := range q.Preds {
		i := schema.ColIndex(p.Col)
		if i < 0 {
			return nil, ShardReport{}, fmt.Errorf("dist: predicate %s: no column %q", p, p.Col)
		}
		if schema[i].Type != p.Val.Kind {
			return nil, ShardReport{}, fmt.Errorf("dist: predicate %s: column %q is %v, literal is %v",
				p, p.Col, schema[i].Type, p.Val.Kind)
		}
	}
	ctx := exec.NewCtx()
	shards := sc.Sharded.Shards()
	keep := exec.PruneShards(shards, q.Preds)
	rep := ShardReport{}
	sel := []string{q.GroupBy}
	if q.SumCol != q.GroupBy {
		sel = append(sel, q.SumCol)
	}
	var wire uint64
	var parts []*exec.Relation
	for i, sh := range shards {
		if !keep[i] {
			rep.ShardsPruned++
			continue
		}
		rep.ShardsScanned++
		plan := &exec.HashAgg{
			Child:   &exec.Scan{Source: colstore.OneShard(sh), Select: sel, Preds: q.Preds},
			GroupBy: []string{q.GroupBy},
			Aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: q.SumCol, As: q.SumAlias}},
		}
		part, err := plan.Run(ctx)
		if err != nil {
			return nil, ShardReport{}, fmt.Errorf("dist: shard %d (node %d): %w", i, sc.NodeOf[i], err)
		}
		w := wireBytesRaw(part)
		d, lw := sc.link.Ship(w)
		lw.BytesReadDRAM += part.Bytes()
		lw.BytesWrittenDRAM += part.Bytes()
		ctx.SimTime += d
		ctx.Charge(fmt.Sprintf("ship(shard %d@n%d wire=%d)", i, sc.NodeOf[i], w), 0, lw)
		wire += w
		parts = append(parts, part)
	}
	if len(parts) == 0 {
		// Every shard pruned: the result is the empty aggregate.  Integer
		// SUM inputs produce exact integer outputs (exec.HashAgg), floats
		// stay floats.
		sumType := colstore.Float64
		if si := schema.ColIndex(q.SumCol); si >= 0 && schema[si].Type == colstore.Int64 {
			sumType = colstore.Int64
		}
		alias := q.SumAlias
		if alias == "" {
			alias = "sum_" + q.SumCol
		}
		parts = append(parts, &exec.Relation{Cols: []exec.Col{
			{Name: q.GroupBy, Type: schema[schema.ColIndex(q.GroupBy)].Type},
			{Name: alias, Type: sumType},
		}})
	}
	merged, err := mergePartials(ctx, q, parts)
	if err != nil {
		return nil, ShardReport{}, err
	}
	work := ctx.Meter.Snapshot()
	dyn := sc.model.DynamicEnergy(work, sc.model.Core.MaxPState())
	rep.WireBytes = wire
	rep.Transfer = ctx.SimTime
	rep.Energy = dyn.Total() + energy.StaticEnergy(sc.link.Idle, ctx.SimTime)
	return merged, rep, nil
}
