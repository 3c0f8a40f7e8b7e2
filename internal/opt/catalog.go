// Package opt is the energy-aware query optimizer.  Following the paper's
// §IV, it treats energy as a first-class cost next to response time:
// every plan is priced in both seconds and joules, and the query's
// objective — minimum time, energy or energy-delay product — sets the
// goal its schedule is granted cores under.  A plan does not depend on
// the objective: every table has one access path, the scan.
//
// The package contains the catalog (table statistics), selectivity
// estimation, the dual cost model, scan pricing, join ordering with a
// DP-to-greedy cutover that scales past 10,000 tables (E10), and the
// planner that lowers logical queries to executable operator trees.
package opt

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
)

// ColStats holds per-column statistics for selectivity estimation.
type ColStats struct {
	Type      colstore.Type
	Min, Max  int64 // integer domain bounds (valid when HasMinMax)
	HasMinMax bool
	Distinct  int // estimated distinct count
	// ScanBytesPerValue is the physical bytes a predicate scan streams
	// per value under the column's sealed segment codecs (compressed
	// footprint / rows); zero when unknown, 8 for raw layouts.
	ScanBytesPerValue float64
}

// TableStats summarizes one table.
type TableStats struct {
	Name string
	Rows int
	Cols map[string]ColStats
	// Storage is the table's physical layout snapshot: per-column codec
	// mix and the stored-vs-raw compression ratio the planner reports in
	// PlanInfo.
	Storage colstore.TableStorage
}

// Selectivity estimates the fraction of rows matching p under a uniform
// value distribution — the textbook model, adequate for the shape
// comparisons the experiments make.
func (ts *TableStats) Selectivity(p expr.Pred) float64 {
	cs, ok := ts.Cols[p.Col]
	if !ok || ts.Rows == 0 {
		return 0.1
	}
	switch p.Op {
	case vec.EQ:
		if cs.Distinct > 0 {
			return 1 / float64(cs.Distinct)
		}
		return 0.01
	case vec.NE:
		if cs.Distinct > 0 {
			return 1 - 1/float64(cs.Distinct)
		}
		return 0.99
	}
	if !cs.HasMinMax || cs.Max <= cs.Min || p.Val.Kind != colstore.Int64 {
		return 0.33 // default inequality guess
	}
	span := float64(cs.Max - cs.Min + 1)
	frac := float64(p.Val.I-cs.Min) / span
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch p.Op {
	case vec.LT, vec.LE:
		return frac
	case vec.GT, vec.GE:
		return 1 - frac
	}
	return 0.33
}

// Catalog registers tables and their statistics.
// There is one registry: a table is its shard list, whatever the count.
// Statistics are kept per shard under the shard's own name — what zone
// pruning, scan pricing and merge pricing read — and per table
// under the table's name, which keeps column ownership, predicate
// coercion and join-ordering cardinalities working on the bare name.
type Catalog struct {
	tables map[string]*colstore.ShardedTable
	stats  map[string]*TableStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*colstore.ShardedTable),
		stats:  make(map[string]*TableStats),
	}
}

// Add registers a table (superseding any earlier registration under the
// name) and computes its statistics.
func (c *Catalog) Add(st *colstore.ShardedTable) {
	c.tables[st.Name] = st
	c.restat(st, st.Shards())
}

// Refresh recomputes all statistics of the named table — after loads,
// recovery, merges, or a rebalance.  It is O(table); the per-statement
// write path uses RefreshShards.
func (c *Catalog) Refresh(name string) error {
	st, err := c.Lookup(name)
	if err != nil {
		return err
	}
	c.restat(st, st.Shards())
	return nil
}

// RefreshShards re-stats only the shards one statement buffered writes
// into and refolds the table-level estimate — the per-statement fast
// path of Refresh.  Untouched shards' cached statistics are still exact,
// so nothing else needs a rescan.
func (c *Catalog) RefreshShards(name string, touched []int) error {
	st, err := c.Lookup(name)
	if err != nil {
		return err
	}
	shards := st.Shards()
	hit := make([]*colstore.Table, len(touched))
	for j, i := range touched {
		if i < 0 || i >= len(shards) {
			return fmt.Errorf("opt: %s has no shard %d", name, i)
		}
		hit[j] = shards[i]
	}
	c.restat(st, hit)
	return nil
}

// restat recomputes the statistics of the given shards of st, then the
// table-level entry.  A table wrapped in place shares its one shard's
// name, so the shard's entry already IS the table's: no refold — the
// weighted (x·rows)/rows is not x in the last ulp, and an estimate that
// moves by an ulp can flip a join-side or DOP near-tie.
func (c *Catalog) restat(st *colstore.ShardedTable, shards []*colstore.Table) {
	for _, sh := range shards {
		c.stats[sh.Name] = statsOf(sh)
	}
	if st.Shard(0).Name != st.Name {
		c.stats[st.Name] = c.combinedStats(st)
	}
}

// statsOf computes the statistics of one physical main/delta table.
func statsOf(t *colstore.Table) *TableStats {
	ts := &TableStats{Name: t.Name, Rows: t.Rows(), Cols: map[string]ColStats{}, Storage: t.Storage()}
	colStorage := make(map[string]colstore.ColumnStorage, len(ts.Storage.Cols))
	for _, s := range ts.Storage.Cols {
		colStorage[s.Name] = s
	}
	for _, d := range t.Schema() {
		cs := ColStats{Type: d.Type}
		if s, ok := colStorage[d.Name]; ok && ts.Rows > 0 {
			cs.ScanBytesPerValue = float64(s.StoredBytes) / float64(ts.Rows)
		}
		switch d.Type {
		case colstore.Int64:
			ic, _ := t.IntCol(d.Name)
			if min, max, ok := ic.MinMax(); ok {
				cs.Min, cs.Max, cs.HasMinMax = min, max, true
				cs.Distinct = estimateDistinct(ic)
			}
		case colstore.String:
			sc, _ := t.StrCol(d.Name)
			cs.Distinct = sc.DictSize()
		}
		ts.Cols[d.Name] = cs
	}
	return ts
}

// estimateDistinct samples every (n/4096)-th row: a sample whose rows are
// all distinct reads as a unique column (n), any other counts its
// distinct values, capped by the domain span.
func estimateDistinct(ic *colstore.IntColumn) int {
	n := ic.Len()
	if n == 0 {
		return 0
	}
	sample := 4096
	if sample > n {
		sample = n
	}
	seen := make(map[int64]struct{}, sample)
	step := n / sample
	if step == 0 {
		step = 1
	}
	taken := 0
	for i := 0; i < n; i += step {
		seen[ic.Get(i)] = struct{}{}
		taken++
	}
	d := len(seen)
	if d == taken { // likely unique
		d = n
	}
	if min, max, ok := ic.MinMax(); ok {
		if span := max - min + 1; int64(d) > span && span > 0 {
			d = int(span)
		}
	}
	return d
}

// Lookup returns the registered table.
func (c *Catalog) Lookup(name string) (*colstore.ShardedTable, error) {
	st, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown table %q", name)
	}
	return st, nil
}

// Table returns the physical main/delta table stored under name — a
// shard, by its own name: "<table>#<i>" in a cut table, the table's name
// itself when the table is one shard wrapped in place.  This is how WAL
// replay, the engine's writes and experiment harnesses reach storage.
func (c *Catalog) Table(name string) (*colstore.Table, error) {
	st, ok := c.tables[name]
	if i := strings.LastIndexByte(name, '#'); !ok && i >= 0 {
		st, ok = c.tables[name[:i]]
	}
	if ok {
		for _, sh := range st.Shards() {
			if sh.Name == name {
				return sh, nil
			}
		}
	}
	return nil, fmt.Errorf("opt: unknown table %q", name)
}

// Stats returns the statistics for the named table.
func (c *Catalog) Stats(name string) (*TableStats, error) {
	s, ok := c.stats[name]
	if !ok {
		return nil, fmt.Errorf("opt: no statistics for table %q", name)
	}
	return s, nil
}

// Tables lists registered table names.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
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
