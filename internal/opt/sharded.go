package opt

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
)

// Sharded-table catalog support and planning (ROADMAP item 3).  A
// value-range-sharded table registers its shards under "<name>#<i>" —
// so per-shard statistics exist for zone pruning and WAL replay resolves
// shard tables by name — plus combined statistics under the bare name,
// which keeps column ownership, predicate coercion, and join-ordering
// cardinalities working unchanged.  The bare name deliberately stays out
// of the flat table registry: code paths that need a flat table (index
// builds, the dictionary code domain) fall back gracefully by failing
// the lookup.

// AddSharded registers a sharded table: each shard with its own stats,
// combined stats under the bare name, and the shard container itself.
// Any flat registration under the same name is superseded.
func (c *Catalog) AddSharded(st *colstore.ShardedTable) {
	delete(c.tables, st.Name)
	for _, sh := range st.Shards() {
		c.AddTable(sh)
	}
	c.stats[st.Name] = c.combinedStats(st)
	c.sharded[st.Name] = st
}

// Sharded returns the registered sharded table.
func (c *Catalog) Sharded(name string) (*colstore.ShardedTable, error) {
	st, ok := c.sharded[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown sharded table %q", name)
	}
	return st, nil
}

// ShardedTables lists registered sharded-table names.
func (c *Catalog) ShardedTables() []string {
	out := make([]string, 0, len(c.sharded))
	for n := range c.sharded {
		out = append(out, n)
	}
	return out
}

// RefreshSharded recomputes the zone bounds and all statistics of a
// sharded table (after recovery, merges, or a rebalance).  It is
// O(table); the per-statement write path uses RefreshShardedShards.
func (c *Catalog) RefreshSharded(name string) error {
	st, ok := c.sharded[name]
	if !ok {
		return fmt.Errorf("opt: unknown sharded table %q", name)
	}
	st.RecomputeBounds()
	for _, sh := range st.Shards() {
		c.AddTable(sh)
	}
	c.stats[name] = c.combinedStats(st)
	return nil
}

// RefreshShardedShards re-stats only the shards one statement buffered
// writes into and refolds the combined estimate — the per-statement
// fast path of RefreshSharded.  Zone bounds are maintained incrementally
// by the writer (ShardedTable.WidenBounds), and untouched shards' cached
// statistics are still exact, so nothing else needs a rescan.
func (c *Catalog) RefreshShardedShards(name string, touched []int) error {
	st, ok := c.sharded[name]
	if !ok {
		return fmt.Errorf("opt: unknown sharded table %q", name)
	}
	shards := st.Shards()
	for _, i := range touched {
		if i < 0 || i >= len(shards) {
			return fmt.Errorf("opt: %s has no shard %d", name, i)
		}
		c.AddTable(shards[i])
	}
	c.stats[name] = c.combinedStats(st)
	return nil
}

// combinedStats folds the per-shard statistics into one TableStats for
// the bare name, excluding the hidden sequence column.  Min/max union;
// distinct counts sum (shard key ranges are disjoint by construction,
// other columns cap at the row count and domain span); storage sums.
func (c *Catalog) combinedStats(st *colstore.ShardedTable) *TableStats {
	ts := &TableStats{Name: st.Name, Cols: map[string]ColStats{}}
	shards := st.Shards()
	shardStats := make([]*TableStats, len(shards))
	for i, sh := range shards {
		shardStats[i], _ = c.Stats(sh.Name)
		ts.Rows += sh.Rows()
	}
	for _, d := range st.Schema() {
		cs := ColStats{Type: d.Type}
		var weightedBytes float64
		for i := range shards {
			ss := shardStats[i]
			if ss == nil {
				continue
			}
			scs, ok := ss.Cols[d.Name]
			if !ok {
				continue
			}
			if scs.HasMinMax {
				if !cs.HasMinMax || scs.Min < cs.Min {
					cs.Min = scs.Min
				}
				if !cs.HasMinMax || scs.Max > cs.Max {
					cs.Max = scs.Max
				}
				cs.HasMinMax = true
			}
			cs.Distinct += scs.Distinct
			weightedBytes += scs.ScanBytesPerValue * float64(ss.Rows)
		}
		if cs.Distinct > ts.Rows {
			cs.Distinct = ts.Rows
		}
		if cs.HasMinMax {
			if span := cs.Max - cs.Min + 1; int64(cs.Distinct) > span && span > 0 {
				cs.Distinct = int(span)
			}
		}
		if ts.Rows > 0 {
			cs.ScanBytesPerValue = weightedBytes / float64(ts.Rows)
		}
		ts.Cols[d.Name] = cs
	}
	byName := map[string]int{}
	for _, sh := range shards {
		for _, cstg := range sh.Storage().Cols {
			if cstg.Name == colstore.ShardSeqCol {
				continue // hidden column: not part of the user-visible footprint
			}
			i, ok := byName[cstg.Name]
			if !ok {
				i = len(ts.Storage.Cols)
				byName[cstg.Name] = i
				ts.Storage.Cols = append(ts.Storage.Cols, colstore.ColumnStorage{
					Name: cstg.Name, Segments: map[string]int{},
				})
			}
			agg := &ts.Storage.Cols[i]
			agg.RawBytes += cstg.RawBytes
			agg.StoredBytes += cstg.StoredBytes
			for codec, n := range cstg.Segments {
				agg.Segments[codec] += n
			}
		}
	}
	for _, cstg := range ts.Storage.Cols {
		ts.Storage.RawBytes += cstg.RawBytes
		ts.Storage.StoredBytes += cstg.StoredBytes
	}
	return ts
}

// EstimateRebalance prices the shard-narrowing pass, mirroring
// colstore.ShardedTable.Rebalance's accounting: every shard's delta
// merge, then — assuming the pass is not deferred — one full re-route
// streaming the table out of the old layout and into the new one.
func EstimateRebalance(st *colstore.ShardedTable) energy.Counters {
	var w energy.Counters
	for _, sh := range st.Shards() {
		w.Add(EstimateMerge(sh))
	}
	rows := uint64(st.Rows())
	bytes := st.Bytes()
	w.TuplesIn += rows
	w.TuplesOut += rows
	w.Instructions += rows * 8
	w.BytesReadDRAM += bytes
	w.BytesWrittenDRAM += bytes
	return w
}

// PlanRebalance plans the rebalance of a sharded table as a query — an
// exec.Rebalance node with a priced estimate and a share signature, the
// same "maintenance as a query" treatment PlanMerge gives the delta
// merge.  The signature includes the highest shard write epoch so a
// ticket never shares with one planned against older table state.
func PlanRebalance(c *Catalog, cm *CostModel, table string, horizon func() int64) (exec.Node, *PlanInfo, error) {
	st, err := c.Sharded(table)
	if err != nil {
		return nil, nil, err
	}
	var epoch int64
	for _, sh := range st.Shards() {
		if we := sh.WriteEpoch(); we > epoch {
			epoch = we
		}
	}
	node := &exec.Rebalance{Sharded: st, Horizon: horizon}
	info := &PlanInfo{
		Access:   map[string]AccessChoice{},
		Storage:  map[string]TableStorageInfo{},
		Est:      cm.Price(EstimateRebalance(st), 0),
		ShareSig: fmt.Sprintf("REBALANCE %s #%d", table, epoch),
	}
	info.Explain = exec.Explain(node)
	return node, info, nil
}
