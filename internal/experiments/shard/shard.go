// Package shard is value-range sharding, the layout E25 measures and
// E17's shard placement ships: a table cut into k main/delta shards on a
// BIGINT key, whole shards pruned against predicates before a morsel is
// enumerated, and a k-way merge by a hidden global row sequence that
// reads the shards back in the flat table's row order.  The served engine
// keeps one table shape, colstore.Table; this package composes that
// shape — one flat exec.Scan per surviving shard — and keeps the
// sharding decision where a workload can earn it (ROADMAP item 13).
//
// # Row-order identity
//
// Every shard carries a hidden stored BIGINT column, SeqCol, holding the
// row's global sequence number: its position in the original flat load
// order, extended by one fresh sequence per routed row.  Within a shard
// the sequence is strictly ascending in physical row order (routing
// preserves load order, the delta appends in commit order, and
// Merge/Rebalance preserve relative order), so a k-way merge of per-shard
// scans by sequence reproduces the flat table's row order exactly — at
// every shard count.
package shard

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/colstore"
	"repro/internal/energy"
)

// SeqCol is the hidden global row sequence column every shard stores.
const SeqCol = "__shard_seq"

// Table is a table as its shard list: k main/delta shards named
// "<name>#<i>", the routing cuts (shard i owns keys <= cuts[i], last cut
// +inf), and the global row sequence counter.
type Table struct {
	Name     string
	ShardCol string

	mu      sync.Mutex
	schema  colstore.Schema // user-visible schema (SeqCol excluded)
	shards  []*colstore.Table
	cuts    []int64
	nextSeq int64
}

// RebalanceStats reports what one rebalance pass did, with the priced
// work the caller charges into its meter (mirroring colstore.MergeStats).
type RebalanceStats struct {
	Table  string
	Shards int
	// Deferred is set when delta rows, tombstones, or visibility metadata
	// survive the horizon (a live snapshot still needs them): the pass
	// merged what it could but left the shard cuts untouched, so no row
	// moves under a reader's feet.
	Deferred    bool
	RowsTotal   int
	RowsMoved   int // rows whose owning shard changed
	BytesBefore uint64
	BytesAfter  uint64
	Work        energy.Counters
}

// Cut cuts a flat, bulk-loaded table into k equi-depth value-range
// shards on shardCol (BIGINT).  The source table must not carry
// transactional writes (cut before them, like Seal).  Row i of the source
// becomes global sequence i; routing is purely by value, so equal keys
// always land in the same shard and the cut is deterministic.
func Cut(t *colstore.Table, shardCol string, k int) (*Table, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", k)
	}
	if t.AppliedLSN() > 0 || t.HasTombstones() {
		return nil, fmt.Errorf("shard: Cut(%s) after transactional writes", t.Name)
	}
	schema := t.Schema()
	if schema.ColIndex(SeqCol) >= 0 {
		return nil, fmt.Errorf("shard: table %s already carries %s", t.Name, SeqCol)
	}
	ki := schema.ColIndex(shardCol)
	if ki < 0 {
		return nil, fmt.Errorf("shard: shard column %q not in table %s", shardCol, t.Name)
	}
	if schema[ki].Type != colstore.Int64 {
		return nil, fmt.Errorf("shard: shard column %q must be BIGINT", shardCol)
	}
	keyCol, err := t.IntCol(shardCol)
	if err != nil {
		return nil, err
	}
	n := t.Rows()
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = keyCol.Get(i)
	}
	s := &Table{Name: t.Name, ShardCol: shardCol, schema: schema, cuts: equiDepthCuts(keys, k), nextSeq: int64(n)}
	cols, err := columns(t, schema)
	if err != nil {
		return nil, err
	}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = append(rowOf(cols, i), int64(i))
	}
	s.shards, err = s.build(rows, keys)
	return s, err
}

// columns resolves the stored columns of schema in t.
func columns(t *colstore.Table, schema colstore.Schema) ([]colstore.Column, error) {
	cols := make([]colstore.Column, len(schema))
	for i, d := range schema {
		c, err := t.Column(d.Name)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// rowOf reads physical row i of the columns, in order, with room for the
// sequence.
func rowOf(cols []colstore.Column, i int) []any {
	vals := make([]any, 0, len(cols)+1)
	for _, c := range cols {
		switch cc := c.(type) {
		case *colstore.IntColumn:
			vals = append(vals, cc.Get(i))
		case *colstore.FloatColumn:
			vals = append(vals, cc.Get(i))
		case *colstore.StringColumn:
			vals = append(vals, cc.Get(i))
		}
	}
	return vals
}

// build routes rows (each ending in its sequence, keys[i] row i's shard
// key) into k fresh unsealed shards, preserving row order within each.
func (s *Table) build(rows [][]any, keys []int64) ([]*colstore.Table, error) {
	shardSchema := append(append(colstore.Schema(nil), s.schema...), colstore.ColumnDef{Name: SeqCol, Type: colstore.Int64})
	out := make([]*colstore.Table, len(s.cuts))
	ws := make([]*colstore.Writer, len(s.cuts))
	for i := range out {
		out[i] = colstore.NewTable(fmt.Sprintf("%s#%d", s.Name, i), shardSchema)
		ws[i] = out[i].Writer()
	}
	for i, row := range rows {
		ws[s.shardForLocked(keys[i])].Row(row...)
	}
	for _, w := range ws {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// equiDepthCuts returns k routing cuts so each shard owns roughly n/k of
// the given keys: cuts[i] is the largest key of shard i, cuts[k-1] is
// +inf.  Duplicate keys never straddle a cut (routing is by value).
func equiDepthCuts(keys []int64, k int) []int64 {
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cuts := make([]int64, k)
	for i := 0; i < k-1; i++ {
		if len(sorted) == 0 {
			cuts[i] = math.MaxInt64
			continue
		}
		idx := ((i + 1) * len(sorted)) / k
		if idx < 1 {
			idx = 1
		}
		cuts[i] = sorted[idx-1]
	}
	cuts[k-1] = math.MaxInt64
	return cuts
}

func (s *Table) shardForLocked(key int64) int {
	return sort.Search(len(s.cuts)-1, func(i int) bool { return key <= s.cuts[i] })
}

// ShardFor returns the index of the shard owning the given key value.
func (s *Table) ShardFor(key int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardForLocked(key)
}

// NumShards returns the shard count.
func (s *Table) NumShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// Shards returns the shard tables in shard order.
func (s *Table) Shards() []*colstore.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*colstore.Table(nil), s.shards...)
}

// Shard returns shard i.
func (s *Table) Shard(i int) *colstore.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i]
}

// Cuts returns the routing cuts (shard i owns keys <= Cuts()[i]).
func (s *Table) Cuts() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.cuts...)
}

// Schema returns the user-visible schema (without the sequence column).
func (s *Table) Schema() colstore.Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(colstore.Schema(nil), s.schema...)
}

// Rows returns the total physical row count across shards.
func (s *Table) Rows() int {
	var n int
	for _, sh := range s.Shards() {
		n += sh.Rows()
	}
	return n
}

// Seal freezes every shard into its scan-optimized layout.
func (s *Table) Seal() error {
	for _, sh := range s.Shards() {
		if _, err := sh.Merge(0); err != nil {
			return err
		}
	}
	return nil
}

// Route completes one schema-ordered user row for writing: it picks the
// shard owning the row's key value and stamps the next global sequence,
// so the sequence stays identical at every shard count.  The caller
// writes the returned row into Shard(i) (ApplyInsert, or Append's bulk
// path).
func (s *Table) Route(vals []any) (int, []any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.routeLocked(vals)
}

func (s *Table) routeLocked(vals []any) (int, []any, error) {
	ki := s.schema.ColIndex(s.ShardCol)
	key, ok := vals[ki].(int64)
	if !ok {
		return 0, nil, fmt.Errorf("shard: %s: shard key must be int64, got %T", s.Name, vals[ki])
	}
	row := append(vals[:len(vals):len(vals)], s.nextSeq)
	s.nextSeq++
	return s.shardForLocked(key), row, nil
}

// Append routes one row (user-schema order) to its owning shard and
// appends it there — the bulk, non-transactional write path.
func (s *Table) Append(vals ...any) error {
	i, row, err := s.Route(vals)
	if err != nil {
		return err
	}
	return s.Shard(i).Writer().Row(row...).Close()
}

// RecoverSeq advances the sequence counter past the highest stored
// sequence — how a log replay that writes shards by name behind the
// container's back recovers the counter after a restart.
func (s *Table) RecoverSeq() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		// Ascending in physical order: the last row holds the shard's highest.
		qc, err := sh.IntCol(SeqCol)
		if n := sh.Rows(); err == nil && n > 0 {
			s.nextSeq = max(s.nextSeq, qc.Get(n-1)+1)
		}
	}
}

// Rebalance merges every shard at the given horizon, then — if nothing
// outlived the horizon — recomputes equi-depth cuts from the surviving
// rows and re-routes them into fresh sealed shards, narrowing overlapping
// shard bounds.  Row movement preserves the global sequence, so scans
// before and after a rebalance return byte-identical relations.  When a
// live snapshot still pins delta rows or tombstones the pass reports
// Deferred and leaves the cuts untouched.  Priced like Merge: the caller
// charges Work.
func (s *Table) Rebalance(horizon int64) (RebalanceStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := RebalanceStats{Table: s.Name, Shards: len(s.shards)}
	for _, sh := range s.shards {
		st.BytesBefore += sh.Bytes()
		st.RowsTotal += sh.Rows()
	}
	clean := true
	for _, sh := range s.shards {
		ms, err := sh.Merge(horizon)
		if err != nil {
			return st, err
		}
		st.Work.Add(ms.Work)
		// A tombstone, or a row whose insert a live snapshot cannot see
		// yet, outlived the horizon.
		if sh.HasTombstones() || (horizon > 0 && sh.RowsAsOf(horizon) < sh.Rows()) {
			clean = false
		}
	}
	if !clean {
		st.Deferred = true
		for _, sh := range s.shards {
			st.BytesAfter += sh.Bytes()
		}
		return st, nil
	}

	// Gather every surviving row, globally ordered by sequence.
	type taggedRow struct {
		shard int
		vals  []any
	}
	var rows []taggedRow
	ki, qi := s.schema.ColIndex(s.ShardCol), len(s.schema)
	for si, sh := range s.shards {
		cols, err := columns(sh, sh.Schema())
		if err != nil {
			return st, err
		}
		for r := 0; r < sh.Rows(); r++ {
			rows = append(rows, taggedRow{shard: si, vals: rowOf(cols, r)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].vals[qi].(int64) < rows[j].vals[qi].(int64) })
	keys := make([]int64, len(rows))
	vals := make([][]any, len(rows))
	for i, row := range rows {
		keys[i], vals[i] = row.vals[ki].(int64), row.vals
	}

	s.cuts = equiDepthCuts(keys, len(s.shards))
	for i, row := range rows {
		if s.shardForLocked(keys[i]) != row.shard {
			st.RowsMoved++
		}
	}
	fresh, err := s.build(vals, keys)
	if err != nil {
		return st, err
	}
	for _, sh := range fresh {
		if _, err := sh.Merge(0); err != nil {
			return st, err
		}
		st.BytesAfter += sh.Bytes()
	}
	s.shards = fresh

	// Price the re-route: every surviving byte is streamed out of the old
	// layout and written into the new one, one routing decision per row.
	st.Work.Add(energy.Counters{
		TuplesIn:         uint64(st.RowsTotal),
		TuplesOut:        uint64(st.RowsTotal),
		Instructions:     uint64(st.RowsTotal) * 8,
		BytesReadDRAM:    st.BytesBefore,
		BytesWrittenDRAM: st.BytesAfter,
	})
	return st, nil
}
