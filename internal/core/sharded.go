package core

import "repro/internal/colstore"

// Cutting a loaded table into value-range shards on the engine facade.
// Rebalancing is a background query on the loop (Loop.OfferRebalance).

// ShardTable cuts a registered one-shard table into k equi-depth
// value-range shards on shardCol and re-registers it under the same name
// (subsequent queries plan shard-at-a-time with zone pruning).  Call it
// after the bulk load, before transactional writes — like Seal.
//
//lint:allow reach: README Engine API, ROADMAP item 13; E25 and the shard-count test matrices
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
	e.cat.Add(st)
	return st, nil
}
