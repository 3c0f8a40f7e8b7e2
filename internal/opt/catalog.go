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
	"sync"

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

// groups estimates the distinct keys of a GROUP BY over cols: the product
// of their distinct counts, at most the table's rows; 1 with no GROUP BY.
func (ts *TableStats) groups(cols []string) float64 {
	g := 1.0
	for _, c := range cols {
		g *= float64(max(1, ts.Cols[c].Distinct))
	}
	return min(g, float64(max(1, ts.Rows)))
}

// Catalog registers tables and their statistics: one main/delta table
// and one TableStats per name, plus the per-column samples those were
// computed from.  mu guards the maps: planners read them while a write
// or a merge re-states a table.  A TableStats is replaced, never
// changed, so one read under the lock stays valid after it.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*colstore.Table
	stats   map[string]*TableStats
	samples map[string]map[string]*colSample // table -> BIGINT column
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*colstore.Table),
		stats:   make(map[string]*TableStats),
		samples: make(map[string]map[string]*colSample),
	}
}

// Add registers a table (superseding any earlier registration under the
// name) and computes its statistics.
func (c *Catalog) Add(t *colstore.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
	c.restat(t, nil)
}

// Refresh recomputes the statistics of the named table — after loads,
// recovery or merges, whatever they rewrote.
func (c *Catalog) Refresh(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.tableLocked(name)
	if err != nil {
		return err
	}
	c.restat(t, nil)
	return nil
}

// Extend re-states the named table after statements that only appended
// rows to it (an INSERT, an UPDATE's new versions) since its statistics
// were last computed: the samples are extended over the new rows, and
// the result equals Refresh's.  While n/4096 stays put a sample's stride
// does, so the rows it took stay the rows a fresh sample takes; when it
// moves (or the table shrank), Extend is Refresh.
func (c *Catalog) Extend(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, err := c.tableLocked(name)
	if err != nil {
		return err
	}
	prev, n := c.samples[name], t.Rows()
	for _, s := range prev {
		if s.step != sampleStep(n) || n < s.rows {
			prev = nil
			break
		}
	}
	c.restat(t, prev)
	return nil
}

// restat computes the statistics of one physical main/delta table from
// its column samples — prev's, extended over the rows appended since,
// where given.
func (c *Catalog) restat(t *colstore.Table, prev map[string]*colSample) {
	ts := &TableStats{Name: t.Name, Rows: t.Rows(), Cols: map[string]ColStats{}, Storage: t.Storage()}
	samples := map[string]*colSample{}
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
			s := prev[d.Name]
			if s == nil {
				s = newColSample(ic)
			} else {
				s.extend(ic)
			}
			samples[d.Name] = s
			if s.rows > 0 {
				cs.Min, cs.Max, cs.HasMinMax = s.min, s.max, true
				cs.Distinct = s.distinct()
			}
		case colstore.String:
			sc, _ := t.StrCol(d.Name)
			cs.Distinct = sc.DictSize()
		}
		ts.Cols[d.Name] = cs
	}
	c.stats[t.Name], c.samples[t.Name] = ts, samples
}

// colSample is what one BIGINT column's statistics are computed from:
// the zone map of its first rows rows, and the distinct-value sample of
// every step-th row below next.
type colSample struct {
	rows     int
	min, max int64
	step     int
	next     int
	taken    int
	seen     map[int64]struct{}
}

// sampleStep is the sample stride over n rows: every row up to 4 096,
// then n/4096 (a sample of 4 096 to 8 191 rows).
func sampleStep(n int) int { return max(1, n/4096) }

// newColSample samples the column's current rows, its zone map from the
// segments' own.
func newColSample(ic *colstore.IntColumn) *colSample {
	n := ic.Len()
	s := &colSample{rows: n, step: sampleStep(n), seen: make(map[int64]struct{}, min(n, 4096))}
	s.min, s.max, _ = ic.MinMax()
	s.sampleTo(ic, n)
	return s
}

// extend folds the rows appended since the sample was taken into its
// zone map and sample.
func (s *colSample) extend(ic *colstore.IntColumn) {
	n := ic.Len()
	if n > s.rows {
		vals := make([]int64, n-s.rows)
		ic.DecodeRange(s.rows, n, vals)
		if s.rows == 0 {
			s.min, s.max = vals[0], vals[0]
		}
		for _, v := range vals {
			s.min, s.max = min(s.min, v), max(s.max, v)
		}
		s.rows = n
	}
	s.sampleTo(ic, n)
}

func (s *colSample) sampleTo(ic *colstore.IntColumn, n int) {
	for ; s.next < n; s.next += s.step {
		s.seen[ic.Get(s.next)] = struct{}{}
		s.taken++
	}
}

// distinct estimates the column's distinct count from the sample: a
// sample whose rows are all distinct reads as a unique column (rows),
// any other counts its distinct values, capped by the domain span.
func (s *colSample) distinct() int {
	d := len(s.seen)
	if d == s.taken { // likely unique
		d = s.rows
	}
	if span := s.max - s.min + 1; int64(d) > span && span > 0 {
		d = int(span)
	}
	return d
}

// Table returns the registered table: what the planner scans, the
// engine writes and WAL replay and experiment harnesses reach.
func (c *Catalog) Table(name string) (*colstore.Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tableLocked(name)
}

func (c *Catalog) tableLocked(name string) (*colstore.Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown table %q", name)
	}
	return t, nil
}

// Stats returns the statistics for the named table.
func (c *Catalog) Stats(name string) (*TableStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.stats[name]
	if !ok {
		return nil, fmt.Errorf("opt: no statistics for table %q", name)
	}
	return s, nil
}

// Tables lists registered table names.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	return out
}
