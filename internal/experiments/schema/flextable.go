// Package schema implements the paper's flexible-schema requirements
// (§II): "data comes first, schema comes second" ingestion — columns
// materialize as records mention them, with validity bitmaps for rows
// that predate a column — and the Need-to-Know principle of §IV.A: a
// secondary index is maintained eagerly (classical ubiquity) or deferred
// until some reader declares interest, at which point it is built from
// the accumulated backlog.  Experiment E12 measures the maintenance work
// saved under update-heavy, read-rare workloads.
package schema

import (
	"fmt"
	"sort"
)

// Kind is the inferred type of a flexible column.
type Kind int

// The inferable kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// flexCol is one dynamically created column with a validity bitmap.
type flexCol struct {
	kind  Kind
	ints  []int64
	flts  []float64
	strs  []string
	valid []bool
}

func (c *flexCol) pad(to int) {
	for len(c.valid) < to {
		c.valid = append(c.valid, false)
		switch c.kind {
		case KindInt:
			c.ints = append(c.ints, 0)
		case KindFloat:
			c.flts = append(c.flts, 0)
		case KindString:
			c.strs = append(c.strs, "")
		}
	}
}

// MaintMode selects index maintenance behaviour.
type MaintMode int

// The maintenance modes of experiment E12.
const (
	// Eager keeps the index current on every insert — the traditional
	// "principle of ubiquity".
	Eager MaintMode = iota
	// Deferred marks the index dirty on insert and rebuilds only when a
	// reader shows interest — the Need-to-Know principle.
	Deferred
)

// String names the mode.
func (m MaintMode) String() string {
	if m == Eager {
		return "eager"
	}
	return "deferred"
}

// flexIndex is a Need-to-Know managed index over an int column.
type flexIndex struct {
	mode     MaintMode
	idx      map[int64][]int32 // key -> rows, in insertion order
	builtTo  int               // rows already reflected in the index
	maintOps int               // total per-row maintenance operations performed
	rebuilds int
}

// add reflects one row in the index: one maintenance operation.
func (fi *flexIndex) add(key int64, row int) {
	fi.idx[key] = append(fi.idx[key], int32(row))
	fi.maintOps++
}

// FlexTable is a schemaless-ingestion table.
type FlexTable struct {
	Name    string
	rows    int
	cols    map[string]*flexCol
	order   []string // column creation order
	indexes map[string]*flexIndex
}

// NewFlexTable returns an empty flexible table.
func NewFlexTable(name string) *FlexTable {
	return &FlexTable{Name: name, cols: map[string]*flexCol{}, indexes: map[string]*flexIndex{}}
}

// Rows returns the number of ingested records.
func (t *FlexTable) Rows() int { return t.rows }

// Columns returns the column names in creation order.
func (t *FlexTable) Columns() []string { return append([]string(nil), t.order...) }

// Ingest adds one record, creating columns on first sight.  Accepted
// value types: int64, int, float64, string.  A type clash with an
// existing column is an error (schema evolution changes width, not kind).
func (t *FlexTable) Ingest(rec map[string]any) error {
	for name, v := range rec {
		col, ok := t.cols[name]
		if !ok {
			col = &flexCol{kind: kindOf(v)}
			col.pad(t.rows)
			t.cols[name] = col
			t.order = append(t.order, name)
		}
		if kindOf(v) != col.kind {
			return fmt.Errorf("schema: column %q is %v, record has %T", name, col.kind, v)
		}
	}
	// Append row: mentioned columns get values, others get nulls.
	for name, col := range t.cols {
		v, ok := rec[name]
		if !ok {
			col.pad(t.rows + 1)
			continue
		}
		col.valid = append(col.valid, true)
		switch col.kind {
		case KindInt:
			col.ints = append(col.ints, toInt(v))
		case KindFloat:
			col.flts = append(col.flts, v.(float64))
		case KindString:
			col.strs = append(col.strs, v.(string))
		}
	}
	t.rows++
	// Index maintenance.
	for name, fi := range t.indexes {
		col := t.cols[name]
		if col == nil {
			continue
		}
		if fi.mode == Eager {
			row := t.rows - 1
			if col.valid[row] {
				fi.add(col.ints[row], row)
			}
			fi.builtTo = t.rows
		}
		// Deferred: nothing now; backlog grows.
	}
	return nil
}

func kindOf(v any) Kind {
	switch v.(type) {
	case int64, int:
		return KindInt
	case float64:
		return KindFloat
	case string:
		return KindString
	}
	return KindString
}

func toInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	}
	return 0
}

// NullCount returns how many rows lack a value for the column.
func (t *FlexTable) NullCount(col string) (int, error) {
	c, ok := t.cols[col]
	if !ok {
		return 0, fmt.Errorf("schema: no column %q", col)
	}
	n := 0
	for _, v := range c.valid {
		if !v {
			n++
		}
	}
	return n, nil
}

// IntValue returns (value, valid) of an int column at row.
func (t *FlexTable) IntValue(col string, row int) (int64, bool, error) {
	c, ok := t.cols[col]
	if !ok || c.kind != KindInt {
		return 0, false, fmt.Errorf("schema: no int column %q", col)
	}
	return c.ints[row], c.valid[row], nil
}

// CreateIndex declares an index over an int column with the given
// maintenance mode.  Existing rows are reflected immediately for Eager
// and lazily for Deferred.
func (t *FlexTable) CreateIndex(col string, mode MaintMode) error {
	c, ok := t.cols[col]
	if ok && c.kind != KindInt {
		return fmt.Errorf("schema: index requires an int column, %q is %v", col, c.kind)
	}
	fi := &flexIndex{mode: mode, idx: map[int64][]int32{}}
	if mode == Eager && ok {
		for row := 0; row < t.rows; row++ {
			if c.valid[row] {
				fi.add(c.ints[row], row)
			}
		}
		fi.builtTo = t.rows
	}
	t.indexes[col] = fi
	return nil
}

// Lookup serves an equality probe through the index, triggering a
// deferred rebuild if a backlog exists (the reader's declared interest).
func (t *FlexTable) Lookup(col string, v int64) ([]int32, error) {
	fi, ok := t.indexes[col]
	if !ok {
		return nil, fmt.Errorf("schema: no index on %q", col)
	}
	c := t.cols[col]
	if c == nil {
		return nil, nil
	}
	if fi.builtTo < t.rows {
		for row := fi.builtTo; row < t.rows; row++ {
			if c.valid[row] {
				fi.add(c.ints[row], row)
			}
		}
		fi.builtTo = t.rows
		fi.rebuilds++
	}
	out := append([]int32(nil), fi.idx[v]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// MaintStats reports the maintenance work an index has performed.
type MaintStats struct {
	Mode     MaintMode
	MaintOps int
	Rebuilds int
	Backlog  int // rows not yet reflected
}

// IndexStats returns maintenance statistics for the index on col.
func (t *FlexTable) IndexStats(col string) (MaintStats, error) {
	fi, ok := t.indexes[col]
	if !ok {
		return MaintStats{}, fmt.Errorf("schema: no index on %q", col)
	}
	return MaintStats{
		Mode:     fi.mode,
		MaintOps: fi.maintOps,
		Rebuilds: fi.rebuilds,
		Backlog:  t.rows - fi.builtTo,
	}, nil
}
