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

// Catalog registers tables and their statistics: one main/delta table
// and one TableStats per name.
type Catalog struct {
	tables map[string]*colstore.Table
	stats  map[string]*TableStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*colstore.Table),
		stats:  make(map[string]*TableStats),
	}
}

// Add registers a table (superseding any earlier registration under the
// name) and computes its statistics.
func (c *Catalog) Add(t *colstore.Table) {
	c.tables[t.Name] = t
	c.stats[t.Name] = statsOf(t)
}

// Refresh recomputes the statistics of the named table — after loads,
// recovery, merges, or a write statement.
func (c *Catalog) Refresh(name string) error {
	t, err := c.Table(name)
	if err != nil {
		return err
	}
	c.stats[name] = statsOf(t)
	return nil
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

// Table returns the registered table: what the planner scans, the
// engine writes and WAL replay and experiment harnesses reach.
func (c *Catalog) Table(name string) (*colstore.Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown table %q", name)
	}
	return t, nil
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
