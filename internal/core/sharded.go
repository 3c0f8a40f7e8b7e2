package core

import "repro/internal/colstore"

// Cutting a loaded table into value-range shards on the engine facade.
// Rebalancing is a background query on the loop (Loop.OfferRebalance).

// ShardTable cuts a registered one-shard table into k equi-depth
// value-range shards on shardCol and re-registers it under the same name
// (subsequent queries plan shard-at-a-time with zone pruning).  Call it
// after the bulk load, before transactional writes — like Seal.
func (e *Engine) ShardTable(name, shardCol string, k int) (*colstore.ShardedTable, error) {
	return e.recut(name, func(t *colstore.Table) (*colstore.ShardedTable, error) {
		return colstore.ShardTable(t, shardCol, k)
	})
}

// ShardTableAligned cuts a registered one-shard table on the same
// routing cuts as another registered table, so equi-joins between the
// two shard columns co-partition shard-pair by shard-pair (no radix
// scatter).
func (e *Engine) ShardTableAligned(name, shardCol, likeName string) (*colstore.ShardedTable, error) {
	like, err := e.cat.Lookup(likeName)
	if err != nil {
		return nil, err
	}
	return e.recut(name, func(t *colstore.Table) (*colstore.ShardedTable, error) {
		return colstore.ShardTableAligned(t, shardCol, like)
	})
}

// recut replaces the registration of the table stored under name with a
// cut of it.
func (e *Engine) recut(name string, cut func(*colstore.Table) (*colstore.ShardedTable, error)) (*colstore.ShardedTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, err := e.cat.Table(name)
	if err != nil {
		return nil, err
	}
	st, err := cut(t)
	if err != nil {
		return nil, err
	}
	e.cat.Add(st)
	return st, nil
}
