package exec

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/energy"
)

// Operators that need a shard column: the co-partitioned join and the
// rebalance pass.  Scanning and aggregating a table of many shards is
// the ordinary Scan (scan.go) and the ordinary fused fold (fused.go)
// over a shard list longer than one.

// ShardedJoin is the co-partitioned equi-join over two aligned sharded
// tables keyed on their shard columns: every key value is owned by the
// same shard index on both sides, so the join runs shard-pair by
// shard-pair with no cross-shard probes.  It is a driver, not a second
// join: it prunes pairs, runs each survivor through the one join
// (join.go) over the pair's two scanned relations, and merges.  A pair
// where either side is pruned never scans the other side.  Pair outputs
// merge by the probe side's sequence, reproducing the flat join's
// probe-row order (build chains within a key live entirely inside one
// pair, in that shard's row order — the flat build order).
type ShardedJoin struct {
	Left, Right       *Scan
	LeftKey, RightKey string
}

// Label implements Node.
func (j *ShardedJoin) Label() string {
	return fmt.Sprintf("ShardedJoin(%s=%s, pairs=%d)", j.LeftKey, j.RightKey, j.Left.Source.NumShards())
}

// Kids implements Node.
func (j *ShardedJoin) Kids() []Node { return []Node{j.Left, j.Right} }

// CoPartitionEligible reports whether an equi-join of the two scans on
// the given keys can run shard-pair by shard-pair — the planner's mirror
// of ShardedJoin.Run's own validation.
func CoPartitionEligible(l, r *Scan, leftKey, rightKey string) bool {
	return l != nil && r != nil &&
		leftKey == l.Source.ShardCol && rightKey == r.Source.ShardCol &&
		l.Source.AlignedWith(r.Source)
}

// Run implements Node.
func (j *ShardedJoin) Run(ctx *Ctx) (*Relation, error) {
	if !CoPartitionEligible(j.Left, j.Right, j.LeftKey, j.RightKey) {
		return nil, fmt.Errorf("exec: ShardedJoin over unaligned tables")
	}
	lb, err := j.Left.Bind()
	if err != nil {
		return nil, err
	}
	rb, err := j.Right.bind(false)
	if err != nil {
		return nil, err
	}
	var parts []*Relation
	var prunedRows uint64
	npruned, total := 0, 0
	for i, l := range lb.Shards {
		r := rb.Shards[i]
		if l.Pruned || r.Pruned {
			// Either side pruned starves the pair: neither side streams.
			prunedRows += uint64(l.Table.RowsAsOf(ctx.SnapTS)) + uint64(r.Table.RowsAsOf(ctx.SnapTS))
			npruned++
			continue
		}
		label := fmt.Sprintf("%s [pair %d]", j.Label(), i)
		lrel, err := l.scan(ctx, label+" probe")
		if err != nil {
			return nil, err
		}
		rrel, err := r.scan(ctx, label+" build")
		if err != nil {
			return nil, err
		}
		src, err := relationProbe(lrel, j.LeftKey)
		if err != nil {
			return nil, err
		}
		jr, err := startJoin(ctx, label, src, rrel, j.RightKey)
		if err != nil {
			return nil, err
		}
		out, err := jr.pairs(ctx)
		if err != nil {
			return nil, err
		}
		if total += out.N; total > maxJoinPairs {
			return nil, ErrResultTooLarge // the cap is the join's, not the pair's
		}
		parts = append(parts, out)
	}
	if npruned > 0 {
		ctx.Charge(fmt.Sprintf("shard-prune(%d/%d pairs)", npruned, len(lb.Shards)), 0,
			energy.Counters{TuplesIn: prunedRows})
	}
	if !lb.multi() && len(parts) == 1 {
		return parts[0], nil // one pair: already in probe-row order
	}
	// The output schema is the pair schema minus the sequence column.
	tmpl := mergeJoinColumns(&Relation{Cols: lb.tmpl}, &Relation{Cols: rb.tmpl}, j.RightKey).Cols
	out, w := mergeBySeq(parts, tmpl)
	if len(parts) > 1 {
		ctx.Charge(fmt.Sprintf("shard-join-merge(%d pairs)", len(parts)), out.N, w)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Rebalance as a query
// ---------------------------------------------------------------------------

// Rebalance is the shard-narrowing pass lowered to a plan operator,
// exactly as Compact lowers the delta merge: the scheduler prices it
// with the same P-state model as user queries, races it to idle when
// the queue is empty, and defers it under load.  Horizon supplies the
// oldest live snapshot at execution time; rows pinned by a live reader
// defer the re-cut (RebalanceStats.Deferred) rather than moving under a
// consistent view.
type Rebalance struct {
	Table   *colstore.ShardedTable
	Horizon func() int64
}

// Label implements Node.
func (r *Rebalance) Label() string {
	return fmt.Sprintf("Rebalance(%s, shards=%d)", r.Table.Name, r.Table.NumShards())
}

// Kids implements Node.
func (r *Rebalance) Kids() []Node { return nil }

// Run implements Node.  The result is a one-row summary relation, so a
// rebalance ticket flows through the serving stack like any query.
func (r *Rebalance) Run(ctx *Ctx) (*Relation, error) {
	var horizon int64
	if r.Horizon != nil {
		horizon = r.Horizon()
	}
	st, err := r.Table.Rebalance(horizon)
	if err != nil {
		return nil, err
	}
	ctx.Charge("rebalance:"+r.Table.Name, st.RowsTotal, st.Work)
	deferred := int64(0)
	if st.Deferred {
		deferred = 1
	}
	return &Relation{N: 1, Cols: []Col{
		StringCol("table", []string{st.Table}),
		{Name: "shards", Type: colstore.Int64, I: []int64{int64(st.Shards)}},
		{Name: "deferred", Type: colstore.Int64, I: []int64{deferred}},
		{Name: "rows_total", Type: colstore.Int64, I: []int64{int64(st.RowsTotal)}},
		{Name: "rows_moved", Type: colstore.Int64, I: []int64{int64(st.RowsMoved)}},
		{Name: "bytes_before", Type: colstore.Int64, I: []int64{int64(st.BytesBefore)}},
		{Name: "bytes_after", Type: colstore.Int64, I: []int64{int64(st.BytesAfter)}},
	}}, nil
}
