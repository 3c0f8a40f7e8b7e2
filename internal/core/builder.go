package core

import (
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/vec"
)

// Builder is the procedural half of the hybrid query language: a fluent
// pipeline that produces the same logical opt.Query as the SQL parser, so
// knowledge workers script pipelines while applications submit SQL —
// both hit one optimizer (experiment E14 checks plan equality).
type Builder struct {
	e *Engine
	q opt.Query
}

// From starts a builder on the given table.
func (e *Engine) From(table string) *Builder {
	return &Builder{e: e, q: opt.Query{From: table}}
}

// Where adds a comparison predicate (expr.IntVal, FloatVal or StrVal).
func (b *Builder) Where(col string, op vec.CmpOp, v expr.Value) *Builder {
	b.q.Preds = append(b.q.Preds, expr.Pred{Col: col, Op: op, Val: v})
	return b
}

// Select adds plain output columns.
func (b *Builder) Select(cols ...string) *Builder {
	for _, c := range cols {
		b.q.Select = append(b.q.Select, opt.SelectItem{Col: c})
	}
	return b
}

// Agg adds an aggregate output.
func (b *Builder) Agg(f expr.AggFunc, col, as string) *Builder {
	b.q.Select = append(b.q.Select, opt.SelectItem{Agg: f, Col: col, As: as})
	return b
}

// Count adds COUNT(*) named as.
func (b *Builder) Count(as string) *Builder {
	b.q.Select = append(b.q.Select, opt.SelectItem{Agg: expr.AggCount, As: as})
	return b
}

// GroupBy sets the grouping columns.
func (b *Builder) GroupBy(cols ...string) *Builder {
	b.q.GroupBy = append(b.q.GroupBy, cols...)
	return b
}

// OrderBy adds a sort key.
func (b *Builder) OrderBy(col string, desc bool) *Builder {
	b.q.OrderBy = append(b.q.OrderBy, expr.SortKey{Col: col, Desc: desc})
	return b
}

// Logical returns the built logical query without executing it.
func (b *Builder) Logical() *opt.Query {
	q := b.q
	return &q
}

// Run plans and executes the pipeline.
func (b *Builder) Run() (*Result, error) { return b.e.Run(b.Logical()) }
