// Package exec is the vectorized execution engine: operator-at-a-time
// physical operators (scan, filter, project, hash join, hash aggregation,
// sort, limit) over the column store, in the
// MonetDB-style materialized model that dominated the paper's era.  Every
// operator records the work it performs in energy counters so whole plans
// can be priced in joules as well as seconds.
//
// # Concurrency contract
//
// A plan is driven by exactly one goroutine: Node.Run is never called
// concurrently on the same tree or with the same Ctx, and every serial
// operator (Project, Sort, Limit, Compact) runs entirely on
// that goroutine.  The morsel-driven operators — Scan, HashAgg and Join —
// fan work out to Ctx.DOP() internal workers (a one-morsel input runs on
// one) but present the same single-goroutine interface: they return only after
// all workers have joined, and their results and charged counters are
// byte-identical at every degree of parallelism (see morsel.go and
// join.go).
//
// The only Ctx member those workers may touch is Meter, which is
// mutex-guarded.  Charging must stay coarse: serial operators call
// Ctx.Charge once per operator; parallel workers merge worker-local
// energy.Counters into Ctx.Meter once per morsel batch — never per row —
// and the coordinator records the operator's trace entry with Ctx.Trace
// after the join.  SimTime and OpReports are single-goroutine state.
//
// Relations and colstore tables are safe to read from many workers;
// nothing in this package mutates a table during execution.
package exec

import (
	"fmt"
	"math"

	"repro/internal/colstore"
)

// Col is one materialized column of an intermediate result.  A BIGINT
// column holds its values in I and a DOUBLE column in F.  A VARCHAR column
// is always codes plus a dictionary: I[i] is a code and Dict[I[i]] the
// string — the form a stored column already has, main and delta alike, so
// a scan copies 8-byte codes and every operator joins, groups, gathers and
// merges them without touching string bytes.  A string is decoded (Str)
// only where it leaves the engine: rendering, a comparison against a
// literal, a sort.  Two columns of equal strings may carry different
// dictionaries (one per storage state); compare them decoded.
type Col struct {
	Name string
	Type colstore.Type
	I    []int64
	F    []float64
	Dict []string // VARCHAR only: code → string, shared and read-only
}

// StringCol builds a VARCHAR column from strings that come from outside
// storage — a summary row, a merged or shipped result, a test fixture —
// interning them into a first-appearance dictionary.  A scan never calls
// it: stored strings already are codes and a dictionary.
func StringCol(name string, vals []string) Col {
	c := Col{Name: name, Type: colstore.String, I: make([]int64, len(vals))}
	ids := make(map[string]int64)
	for i, s := range vals {
		c.I[i] = internID(ids, &c.Dict, s)
	}
	return c
}

// Str returns row i of a VARCHAR column, decoded.
func (c *Col) Str(i int) string { return c.Dict[c.I[i]] }

// Len returns the column's row count.
func (c *Col) Len() int {
	if c.Type == colstore.Float64 {
		return len(c.F)
	}
	return len(c.I)
}

// Relation is a materialized intermediate result.
type Relation struct {
	Cols []Col
	N    int
}

// Col returns the named column.
func (r *Relation) Col(name string) (*Col, error) {
	for i := range r.Cols {
		if r.Cols[i].Name == name {
			return &r.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("exec: relation has no column %q", name)
}

// ColNames lists the column names in order.
func (r *Relation) ColNames() []string {
	out := make([]string, len(r.Cols))
	for i := range r.Cols {
		out[i] = r.Cols[i].Name
	}
	return out
}

// Bytes approximates the materialized size (for memory and shipping
// accounting): 8 bytes a value — a VARCHAR column holds codes, and its
// dictionary belongs to the column it was read from.
func (r *Relation) Bytes() uint64 {
	var b uint64
	for i := range r.Cols {
		b += uint64(r.Cols[i].Len()) * 8
	}
	return b
}

// Gather returns a new relation containing the given rows (in order).  A
// VARCHAR column gathers its codes; the dictionary rides along untouched.
func (r *Relation) Gather(rows []int32) *Relation {
	out := &Relation{N: len(rows), Cols: make([]Col, len(r.Cols))}
	for ci := range r.Cols {
		src := &r.Cols[ci]
		dst := Col{Name: src.Name, Type: src.Type, Dict: src.Dict}
		if src.Type == colstore.Float64 {
			dst.F = make([]float64, len(rows))
			for i, row := range rows {
				dst.F[i] = src.F[row]
			}
		} else {
			dst.I = make([]int64, len(rows))
			for i, row := range rows {
				dst.I[i] = src.I[row]
			}
		}
		out.Cols[ci] = dst
	}
	return out
}

// Equal reports whether r and o are the same result: the same column
// names and types and, row by row, the same values — strings compared
// decoded, floats by their bits.  It is the identity the determinism
// contract promises across storage layouts, whose dictionaries differ
// (sealed, live or merged), where reflect.DeepEqual would
// compare the dictionaries too.
//
//lint:allow reach: reference oracle: E20/E23/E24/E25 and the byte-identity tests compare relations decoded
func (r *Relation) Equal(o *Relation) bool {
	if r.N != o.N || len(r.Cols) != len(o.Cols) {
		return false
	}
	for ci := range r.Cols {
		a, b := &r.Cols[ci], &o.Cols[ci]
		if a.Name != b.Name || a.Type != b.Type || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			switch {
			case a.Type == colstore.Float64 && math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]),
				a.Type == colstore.String && a.Str(i) != b.Str(i),
				a.Type == colstore.Int64 && a.I[i] != b.I[i]:
				return false
			}
		}
	}
	return true
}

// Row renders row i as a value slice (diagnostics, CLI output).
func (r *Relation) Row(i int) []any {
	out := make([]any, len(r.Cols))
	for ci := range r.Cols {
		c := &r.Cols[ci]
		switch c.Type {
		case colstore.Int64:
			out[ci] = c.I[i]
		case colstore.Float64:
			out[ci] = c.F[i]
		default:
			out[ci] = c.Str(i)
		}
	}
	return out
}
