// Package exec is the vectorized execution engine: operator-at-a-time
// physical operators (scan variants, filter, project, hash join, hash
// aggregation, sort, limit, exchange) over the column store, in the
// MonetDB-style materialized model that dominated the paper's era.  Every
// operator records the work it performs in energy counters so whole plans
// can be priced in joules as well as seconds.
//
// # Concurrency contract
//
// A plan is driven by exactly one goroutine: Node.Run is never called
// concurrently on the same tree or with the same Ctx, and every serial
// operator (Filter, Project, Sort, Limit, Exchange, Materialize) runs
// entirely on that goroutine.  The morsel-driven operators — Scan,
// HashAgg and Join — fan work out to Ctx.DOP() internal workers (a
// one-morsel input runs on one) but
// present the same single-goroutine interface: they return only after
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

	"repro/internal/colstore"
)

// Col is one materialized column of an intermediate result.  Exactly one
// of I/F/S is non-nil, matching Type — except for the dictionary-coded
// form of a string column: when Dict is non-nil, Type is String, S is
// nil, and I holds dense codes into Dict (I[i] represents Dict[I[i]]).
// Scans produce that form on request (Scan.Codes) so equi-joins can
// hash, partition, and compare 8-byte codes instead of string bytes;
// the planner caps such plans with a Materialize operator, so every
// other operator and every query result still sees plain strings.
type Col struct {
	Name string
	Type colstore.Type
	I    []int64
	F    []float64
	S    []string
	Dict []string // code → string dictionary; nil for plain columns
}

// Str returns row i of a string column, resolving dictionary codes.
func (c *Col) Str(i int) string {
	if c.Dict != nil {
		return c.Dict[c.I[i]]
	}
	return c.S[i]
}

// Len returns the column's row count.
func (c *Col) Len() int {
	switch {
	case c.Type == colstore.Int64 || c.Dict != nil:
		return len(c.I)
	case c.Type == colstore.Float64:
		return len(c.F)
	default:
		return len(c.S)
	}
}

// Materialized returns the column with dictionary codes widened to
// plain strings (a copy when coded, the column itself when plain).
func (c *Col) Materialized() Col {
	if c.Dict == nil {
		return *c
	}
	out := Col{Name: c.Name, Type: colstore.String, S: make([]string, len(c.I))}
	for i, code := range c.I {
		out.S[i] = c.Dict[code]
	}
	return out
}

// Relation is a materialized intermediate result.
type Relation struct {
	Cols []Col
	N    int
}

// NewRelation builds a relation from columns, validating equal lengths.
func NewRelation(cols ...Col) (*Relation, error) {
	r := &Relation{Cols: cols}
	for i := range cols {
		n := cols[i].Len()
		if i == 0 {
			r.N = n
		} else if n != r.N {
			return nil, fmt.Errorf("exec: column %q has %d rows, expected %d", cols[i].Name, n, r.N)
		}
	}
	return r, nil
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

// Bytes approximates the materialized size (for exchange and memory
// accounting).
func (r *Relation) Bytes() uint64 {
	var b uint64
	for i := range r.Cols {
		c := &r.Cols[i]
		switch {
		case c.Type == colstore.Int64 || c.Type == colstore.Float64:
			b += uint64(c.Len()) * 8
		case c.Dict != nil:
			// Codes only: the dictionary belongs to the base column.
			b += uint64(len(c.I)) * 8
		default:
			for _, s := range c.S {
				b += uint64(len(s)) + 16
			}
		}
	}
	return b
}

// WireBytes prices the uncompressed column-wise serialization of the
// column: 8 bytes per numeric value, length-prefixed strings.  Exchange
// and the distributed shipping strategies (internal/dist) share this one
// convention so wire accounting stays comparable across experiments.
func (c *Col) WireBytes() uint64 {
	switch {
	case c.Type == colstore.Int64 || c.Type == colstore.Float64:
		return uint64(c.Len()) * 8
	case c.Dict != nil:
		// Shipping a coded column means shipping codes plus dictionary.
		b := uint64(len(c.I)) * 8
		for _, s := range c.Dict {
			b += uint64(len(s)) + 2
		}
		return b
	default:
		var b uint64
		for _, s := range c.S {
			b += uint64(len(s)) + 2
		}
		return b
	}
}

// gather returns a new relation containing the given rows (in order).
func (r *Relation) gather(rows []int32) *Relation {
	out := &Relation{N: len(rows), Cols: make([]Col, len(r.Cols))}
	for ci := range r.Cols {
		src := &r.Cols[ci]
		dst := Col{Name: src.Name, Type: src.Type, Dict: src.Dict}
		switch {
		case src.Type == colstore.Int64 || src.Dict != nil:
			// Dictionary-coded string columns gather their 8-byte codes;
			// the shared dictionary rides along untouched.
			dst.I = make([]int64, len(rows))
			for i, row := range rows {
				dst.I[i] = src.I[row]
			}
		case src.Type == colstore.Float64:
			dst.F = make([]float64, len(rows))
			for i, row := range rows {
				dst.F[i] = src.F[row]
			}
		default:
			dst.S = make([]string, len(rows))
			for i, row := range rows {
				dst.S[i] = src.S[row]
			}
		}
		out.Cols[ci] = dst
	}
	return out
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
