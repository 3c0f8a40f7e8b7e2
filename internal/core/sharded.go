package core

import "repro/internal/colstore"

// Sharded-table support on the engine facade: cutting a loaded table
// into value-range shards and the per-statement shard bookkeeping of the
// write path (write.go).  Rebalancing is a background query on the loop
// (Loop.OfferRebalance).

// ShardTable cuts a registered flat table into k equi-depth value-range
// shards on shardCol and re-registers it as a sharded table (the flat
// registration is superseded; subsequent queries plan shard-at-a-time
// with zone pruning).  Call it after the bulk load, before
// transactional writes — like Seal.
func (e *Engine) ShardTable(name, shardCol string, k int) (*colstore.ShardedTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.cat.Table(name)
	if err != nil {
		return nil, err
	}
	st, err := colstore.ShardTable(t, shardCol, k)
	if err != nil {
		return nil, err
	}
	e.cat.AddSharded(st)
	return st, nil
}

// ShardTableAligned cuts a registered flat table on the same routing
// cuts as an already-sharded table, so equi-joins between the two shard
// columns co-partition shard-pair by shard-pair (no radix scatter).
func (e *Engine) ShardTableAligned(name, shardCol, likeName string) (*colstore.ShardedTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	like, err := e.cat.Sharded(likeName)
	if err != nil {
		return nil, err
	}
	t, err := e.cat.Table(name)
	if err != nil {
		return nil, err
	}
	st, err := colstore.ShardTableAligned(t, shardCol, like)
	if err != nil {
		return nil, err
	}
	e.cat.AddSharded(st)
	return st, nil
}

// shardTouch records, per shard index, the key values one statement
// routed into it and whether it buffered any write there, so the
// post-commit catalog refresh widens zone bounds and re-stats ONLY those
// shards.  Flat slices sized to the shard count — no maps, no iteration
// order to leak.
type shardTouch struct {
	keys [][]int64
	hit  []bool
}

func newShardTouch(k int) *shardTouch {
	return &shardTouch{keys: make([][]int64, k), hit: make([]bool, k)}
}

// add records a routed insert (new row or moved version) of key into shard i.
func (t *shardTouch) add(i int, key int64) {
	t.keys[i] = append(t.keys[i], key)
	t.hit[i] = true
}

// mark records a write (tombstone, in-place update) that cannot widen bounds.
func (t *shardTouch) mark(i int) { t.hit[i] = true }

// touched returns the hit shard indices in ascending order.
func (t *shardTouch) touched() []int {
	var out []int
	for i, h := range t.hit {
		if h {
			out = append(out, i)
		}
	}
	return out
}
