package colstore

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/energy"
)

// A table is its list of shards.  ShardedTable is the one table shape the
// catalog registers and every scan, planner and write path binds: each
// shard is its own main/delta Table.  A table created flat is the
// one-shard case wrapped in place (OneShard): no shard column, no hidden
// column, the shard keeps the table's name.  ShardTable cuts a loaded
// table into k value-range shards keyed by routing cuts on a designated
// BIGINT shard column (the min-list/max-list layout sketched in memcp's
// storage roadmap).  Across more than one shard, whole shards are pruned
// against predicates before a single morsel is enumerated — the cheapest
// byte is the one never streamed.
//
// # Row-order identity
//
// Every shard of a cut table carries a hidden stored BIGINT column,
// ShardSeqCol, holding the row's global sequence number: its position in
// the original flat load order, extended by one fresh sequence per
// DML-written row.  Within a shard the sequence is strictly ascending in
// physical row order (routing preserves load order, the delta appends in
// commit order, and Merge/Rebalance preserve relative order), so a k-way
// merge of per-shard scans by sequence reproduces the flat table's row
// order exactly — at every shard count.  That is the whole determinism
// story: relations are byte-identical to the unsharded layout no matter
// how the rows are cut.
const ShardSeqCol = "__shard_seq"

// ShardedTable is a table as its shard list: k main/delta shards, the
// routing cuts (shard i owns keys <= cuts[i], last cut +inf), and the
// global row sequence counter.  A cut table names its shards
// "<name>#<i>"; a table wrapped in place has ShardCol == "" and its one
// shard under its own name.
type ShardedTable struct {
	Name     string
	ShardCol string

	mu      sync.Mutex
	schema  Schema // user-visible schema (ShardSeqCol excluded)
	shards  []*Table
	cuts    []int64
	nextSeq int64
}

// RebalanceStats reports what one rebalance pass did, with the priced
// work the caller charges into its meter (mirroring MergeStats).
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

// OneShard wraps a flat table in place as the one-shard table: nothing is
// copied, no column is added, and the shard is t itself under its own
// name — callers holding t keep appending to, sealing and merging the
// very table every scan and write of the wrapper reaches.
func OneShard(t *Table) *ShardedTable {
	return &ShardedTable{Name: t.Name, schema: t.Schema(), shards: []*Table{t}, cuts: []int64{math.MaxInt64}}
}

// ShardTable cuts a flat, bulk-loaded table into k equi-depth value-range
// shards on shardCol (BIGINT).  The source table must not carry MVCC
// metadata (shard before transactional writes, like Seal).  Row i of the
// source becomes global sequence i; routing is purely by value, so equal
// keys always land in the same shard and the cut is deterministic.
func ShardTable(t *Table, shardCol string, k int) (*ShardedTable, error) {
	if k < 1 {
		return nil, fmt.Errorf("colstore: shard count %d < 1", k)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.addRows) > 0 || len(t.delRows) > 0 || t.rowIDs != nil {
		return nil, fmt.Errorf("colstore: ShardTable(%s) after transactional writes", t.Name)
	}
	if t.schema.ColIndex(ShardSeqCol) >= 0 {
		return nil, fmt.Errorf("colstore: table %s already carries %s", t.Name, ShardSeqCol)
	}
	ki := t.schema.ColIndex(shardCol)
	if ki < 0 {
		return nil, fmt.Errorf("colstore: shard column %q not in table %s", shardCol, t.Name)
	}
	if t.schema[ki].Type != Int64 {
		return nil, fmt.Errorf("colstore: shard column %q must be BIGINT", shardCol)
	}
	keyCol := t.cols[ki].(*IntColumn)
	n := t.lenLocked()

	keys := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = keyCol.Get(i)
	}
	s := &ShardedTable{
		Name:     t.Name,
		ShardCol: shardCol,
		schema:   append(Schema(nil), t.schema...),
		cuts:     equiDepthCuts(keys, k),
		nextSeq:  int64(n),
	}
	shardSchema := append(append(Schema(nil), t.schema...), ColumnDef{Name: ShardSeqCol, Type: Int64})
	for i := 0; i < k; i++ {
		s.shards = append(s.shards, NewTable(fmt.Sprintf("%s#%d", t.Name, i), shardSchema))
	}
	vals := make([]any, len(t.schema)+1)
	for i := 0; i < n; i++ {
		for ci, c := range t.cols {
			switch cc := c.(type) {
			case *IntColumn:
				vals[ci] = cc.Get(i)
			case *FloatColumn:
				vals[ci] = cc.Get(i)
			case *StringColumn:
				vals[ci] = cc.Get(i)
			}
		}
		vals[len(t.schema)] = int64(i) // global sequence
		sh := s.shards[s.shardForLocked(keys[i])]
		sh.mu.Lock()
		err := sh.appendRowLocked(vals)
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
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

func (s *ShardedTable) shardForLocked(key int64) int {
	return sort.Search(len(s.cuts)-1, func(i int) bool { return key <= s.cuts[i] })
}

// NumShards returns the shard count.
func (s *ShardedTable) NumShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// Shards returns the shard tables in shard order.
func (s *ShardedTable) Shards() []*Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Table(nil), s.shards...)
}

// Shard returns shard i.
func (s *ShardedTable) Shard(i int) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[i]
}

// Cuts returns the routing cuts (shard i owns keys <= Cuts()[i]).
//
//lint:allow reach: ROADMAP item 13 decides range sharding; E25 and the shard-count test matrices read the cuts
func (s *ShardedTable) Cuts() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.cuts...)
}

// Schema returns the user-visible schema (without the sequence column).
func (s *ShardedTable) Schema() Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(Schema(nil), s.schema...)
}

// Rows returns the total physical row count across shards.
func (s *ShardedTable) Rows() int {
	var n int
	for _, sh := range s.Shards() {
		n += sh.Rows()
	}
	return n
}

// DeltaRows returns the total unmerged delta rows across shards.
func (s *ShardedTable) DeltaRows() int {
	var n int
	for _, sh := range s.Shards() {
		n += sh.DeltaRows()
	}
	return n
}

// Bytes returns the total footprint across shards.
func (s *ShardedTable) Bytes() uint64 {
	var b uint64
	for _, sh := range s.Shards() {
		b += sh.Bytes()
	}
	return b
}

// Seal freezes every shard into its scan-optimized layout.
func (s *ShardedTable) Seal() error {
	for _, sh := range s.Shards() {
		if err := sh.Seal(); err != nil {
			return err
		}
	}
	return nil
}

// Route completes one schema-ordered user row for writing: it picks the
// shard owning the row's key value and stamps the next global sequence,
// so the sequence stays identical at every shard count.  It is the
// transactional twin of Append — the caller buffers the returned row
// against Shard(i) in its own transaction.  A table wrapped in place has
// no key to route on and stores no sequence: the row goes to its one
// shard as is.
func (s *ShardedTable) Route(vals []any) (int, []any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.routeLocked(vals)
}

func (s *ShardedTable) routeLocked(vals []any) (int, []any, error) {
	if s.ShardCol == "" {
		return 0, vals, nil
	}
	ki := s.schema.ColIndex(s.ShardCol)
	key, ok := vals[ki].(int64)
	if !ok {
		return 0, nil, fmt.Errorf("colstore: %s: shard key must be int64, got %T", s.Name, vals[ki])
	}
	row := append(vals[:len(vals):len(vals)], s.nextSeq)
	s.nextSeq++
	return s.shardForLocked(key), row, nil
}

// RecoverSeq advances the sequence counter past the highest stored
// sequence — how WAL replay, which writes shards by name behind the
// container's back, recovers the counter after a restart.
func (s *ShardedTable) RecoverSeq() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ShardCol == "" {
		return
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		// Ascending in physical order: the last row holds the shard's highest.
		qc := sh.cols[sh.schema.ColIndex(ShardSeqCol)].(*IntColumn)
		if n := qc.Len(); n > 0 {
			s.nextSeq = max(s.nextSeq, qc.Get(n-1)+1)
		}
		sh.mu.RUnlock()
	}
}

// Rebalance merges every shard at the given horizon, then — if nothing
// outlived the horizon — recomputes equi-depth cuts from the surviving
// rows and re-routes them, narrowing overlapping shard bounds.  Row
// movement preserves the global sequence, so scans before and after a
// rebalance return byte-identical relations.  When a live snapshot still
// pins delta rows or tombstones the pass reports Deferred and leaves the
// cuts untouched.  Priced like Merge: the caller charges Work.
func (s *ShardedTable) Rebalance(horizon int64) (RebalanceStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := RebalanceStats{Table: s.Name, Shards: len(s.shards)}
	if s.ShardCol == "" {
		return st, fmt.Errorf("colstore: %s has no shard column to rebalance on", s.Name)
	}
	for _, sh := range s.shards {
		st.BytesBefore += sh.Bytes()
		st.RowsTotal += sh.Rows()
	}
	for _, sh := range s.shards {
		ms, err := sh.Merge(horizon)
		if err != nil {
			return st, err
		}
		st.Work.Add(ms.Work)
	}
	clean := true
	for _, sh := range s.shards {
		sh.mu.RLock()
		if len(sh.addRows) > 0 || len(sh.delRows) > 0 || sh.sealedRows != sh.lenLocked() {
			clean = false
		}
		sh.mu.RUnlock()
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
		seq   int64
		shard int
		vals  []any
	}
	var rows []taggedRow
	var keys []int64
	var lsn uint64
	var lastTS, nextRowID, epoch int64
	shardSchema := s.shards[0].Schema()
	ki := shardSchema.ColIndex(s.ShardCol)
	qi := shardSchema.ColIndex(ShardSeqCol)
	for si, sh := range s.shards {
		sh.mu.RLock()
		if sh.appliedLSN > lsn {
			lsn = sh.appliedLSN
		}
		if sh.lastTS > lastTS {
			lastTS = sh.lastTS
		}
		if sh.nextRowID > nextRowID {
			nextRowID = sh.nextRowID
		}
		if sh.writeEpoch > epoch {
			epoch = sh.writeEpoch
		}
		for r := 0; r < sh.lenLocked(); r++ {
			vals := make([]any, len(shardSchema))
			for ci, c := range sh.cols {
				switch cc := c.(type) {
				case *IntColumn:
					vals[ci] = cc.Get(r)
				case *FloatColumn:
					vals[ci] = cc.Get(r)
				case *StringColumn:
					vals[ci] = cc.Get(r)
				}
			}
			rows = append(rows, taggedRow{seq: vals[qi].(int64), shard: si, vals: vals})
			keys = append(keys, vals[ki].(int64))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].seq < rows[j].seq })

	s.cuts = equiDepthCuts(keys, len(s.shards))
	fresh := make([]*Table, len(s.shards))
	for i := range fresh {
		fresh[i] = NewTable(fmt.Sprintf("%s#%d", s.Name, i), shardSchema)
		fresh[i].appliedLSN = lsn
		fresh[i].lastTS = lastTS
		fresh[i].nextRowID = nextRowID
		fresh[i].writeEpoch = epoch + 1
	}
	for _, row := range rows {
		dst := s.shardForLocked(row.vals[ki].(int64))
		if dst != row.shard {
			st.RowsMoved++
		}
		if err := fresh[dst].appendRowLocked(row.vals); err != nil {
			return st, err
		}
	}
	for _, sh := range fresh {
		if err := sh.sealLocked(); err != nil {
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
