package exec

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Scan reads a base table with conjunctive predicates pushed down: the
// table is cut into the fixed morsel grid and filtered by the one kernel
// (Binding.Filter) on a pool of Ctx.DOP() workers, each morsel
// materializes its slice of the projection, and the coordinator
// concatenates the slices in morsel order.  A table under one morsel is
// one task, so the serial scan is the DOP-clipped case of the same code.
// Output rows, their order, and the charged counters are a pure function
// of (snapshot, predicates) at every DOP.
type Scan struct {
	Source *colstore.Table
	Select []string // output columns; empty = all columns
	Preds  []expr.Pred
}

// Label implements Node.
func (s *Scan) Label() string {
	parts := []string{fmt.Sprintf("Scan(%s)", s.Source.Name)}
	for _, p := range s.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ")
}

// Kids implements Node.
func (s *Scan) Kids() []Node { return nil }

// Binding is a Scan resolved against its table once, before any worker
// starts, so morsel bodies cannot fail: the projected columns and the
// type-checked predicate columns.
type Binding struct {
	Table *colstore.Table
	// Cols are the projected stored columns in projection order.
	Cols []colstore.Column

	preds    []expr.Pred
	predCols []colstore.Column
	tmpl     []Col // per Cols entry: name, type, a VARCHAR column's dictionary
}

// index returns the projection index of a column, -1 when the scan does
// not emit it.
func (b *Binding) index(name string) int {
	for i := range b.tmpl {
		if b.tmpl[i].Name == name {
			return i
		}
	}
	return -1
}

// Bind resolves the scan against its table: projection, predicate
// columns, predicate type checks, dictionaries.
func (s *Scan) Bind() (*Binding, error) {
	if s.Source == nil {
		return nil, fmt.Errorf("exec: scan has no source table")
	}
	t := s.Source
	schema := t.Schema()
	names := s.Select
	if len(names) == 0 {
		for _, d := range schema {
			names = append(names, d.Name)
		}
	}
	b := &Binding{Table: t, preds: s.Preds, tmpl: make([]Col, len(names))}
	for i, n := range names {
		ci := schema.ColIndex(n)
		if ci < 0 {
			return nil, fmt.Errorf("exec: table %s has no column %q", t.Name, n)
		}
		c, err := t.Column(n)
		if err != nil {
			return nil, err
		}
		b.Cols = append(b.Cols, c)
		b.tmpl[i] = Col{Name: n, Type: schema[ci].Type}
		if sc, ok := c.(*colstore.StringColumn); ok {
			b.tmpl[i].Dict = sc.Dict() // once per Bind: every morsel shares it
		}
	}
	for _, p := range s.Preds {
		c, err := t.Column(p.Col)
		if err != nil {
			return nil, err
		}
		if err := checkPredType(c, p); err != nil {
			return nil, err
		}
		b.predCols = append(b.predCols, c)
	}
	return b, nil
}

// checkPredType verifies that a predicate literal matches its column.
func checkPredType(c colstore.Column, p expr.Pred) error {
	switch c.(type) {
	case *colstore.IntColumn:
		if p.Val.Kind != colstore.Int64 {
			return fmt.Errorf("exec: predicate %s: column is BIGINT", p)
		}
	case *colstore.FloatColumn:
		if p.Val.Kind != colstore.Float64 {
			return fmt.Errorf("exec: predicate %s: column is DOUBLE", p)
		}
	case *colstore.StringColumn:
		if p.Val.Kind != colstore.String {
			return fmt.Errorf("exec: predicate %s: column is VARCHAR", p)
		}
	default:
		return fmt.Errorf("exec: unsupported column type for %q", p.Col)
	}
	return nil
}

// Filter is the one scan kernel: it evaluates the bound predicates over
// rows [lo, hi) of the table through the zone-map-pruned operate-on-
// compressed column kernels (colstore's ScanRows dispatching per segment
// codec: RLE runs, delta boundary search, dictionary code rewrite,
// bit-packed SWAR), masks rows invisible at snap, and returns the
// selection over the window (bit i = row lo+i) with the physical work it
// cost.  Materialization, the fused aggregate and probe kernels, and the
// engine's UPDATE/DELETE victim search all consume its selection vector.
// Tombstone masking charges per visible tombstone in the window — like
// the predicate kernels a function of (snapshot, window) alone, so any
// morsel sweep is DOP-invariant.
//
// The selection is written into the caller's sel (resized to the window):
// the first predicate's kernels write it directly; only a second or later
// predicate scans into scratch, which is ANDed in.  A predicate-free
// window selects every row.  A nil sel runs no kernel and prices the
// window: the counters Filter books, with TuplesOut the rows the zone
// maps prove match, summed over the predicates (colstore's ScanRows).
func (b *Binding) Filter(snap int64, lo, hi int, sel, scratch *vec.Bitvec) energy.Counters {
	nrows := hi - lo
	if sel != nil {
		sel.Resize(nrows)
		if len(b.preds) == 0 {
			sel.SetAll()
		}
	}
	var w energy.Counters
	for i, p := range b.preds {
		pb := sel
		if i > 0 && sel != nil {
			scratch.Resize(nrows)
			pb = scratch
		}
		w.Add(b.scanPred(i, p.Op, lo, hi, pb))
		if i > 0 && sel != nil {
			sel.And(pb)
		}
	}
	w.Add(b.Table.FilterVisible(snap, lo, hi, sel))
	return w
}

// scanPred runs predicate i's column kernel under op over rows [lo, hi)
// into out (nil prices the window).
func (b *Binding) scanPred(i int, op vec.CmpOp, lo, hi int, out *vec.Bitvec) energy.Counters {
	p := b.preds[i]
	switch c := b.predCols[i].(type) {
	case *colstore.IntColumn:
		return c.ScanRows(op, p.Val.I, lo, hi, out)
	case *colstore.FloatColumn:
		return c.ScanRows(op, p.Val.F, lo, hi, out)
	case *colstore.StringColumn:
		return c.ScanRows(op, p.Val.S, lo, hi, out)
	}
	return energy.Counters{}
}

// negated is the operator that holds exactly where op fails.
var negated = [...]vec.CmpOp{vec.LT: vec.GE, vec.LE: vec.GT, vec.GT: vec.LE, vec.GE: vec.LT, vec.EQ: vec.NE, vec.NE: vec.EQ}

// possible returns how many rows of [lo, hi) the zone maps leave
// possible under every predicate: the window less the rows they prove
// fail the predicate that excludes most (its negation priced on a nil
// selection).
func (b *Binding) possible(lo, hi int) int {
	n := hi - lo
	for i, p := range b.preds {
		n = min(n, hi-lo-int(b.scanPred(i, negated[p.Op], lo, hi, nil).TuplesOut))
	}
	return n
}

// selectRows is Filter for the read path, into the worker's scratch, whose
// scan stage books its logical input even when no predicate streamed a
// column: a predicate-free window still considered its rows.  (Callers
// book the selected count as the stage's output.)  A nil sc prices the
// window, as Filter does on a nil selection.
func (b *Binding) selectRows(snap int64, lo, hi int, sc *morselScratch) (*vec.Bitvec, energy.Counters) {
	var sel, pred *vec.Bitvec
	if sc != nil {
		sel, pred = &sc.sel, &sc.pred
	}
	w := b.Filter(snap, lo, hi, sel, pred)
	if len(b.preds) == 0 {
		w.TuplesIn += uint64(hi - lo)
	}
	return sel, w
}

// Run implements Node.
func (s *Scan) Run(ctx *Ctx) (*Relation, error) {
	b, err := s.Bind()
	if err != nil {
		return nil, err
	}
	return b.scan(ctx, s.Label())
}

// scan filters and materializes the table morsel-wise at the context's
// snapshot.  The snapshot fixes the scan prefix — and with it the morsel
// grid — at admission, so concurrent writes never perturb results,
// counters, or the work distribution.
func (b *Binding) scan(ctx *Ctx, label string) (*Relation, error) {
	snap := ctx.SnapTS
	parts, total := runMorsels(ctx, b.Table.RowsAsOf(snap), func(m, lo, hi int) (*Relation, energy.Counters) {
		sc := scratchPool.Get().(*morselScratch)
		defer scratchPool.Put(sc)
		sel, w := b.selectRows(snap, lo, hi, sc)
		sc.rows = sel.AppendIndices(sc.rows[:0])
		rows := sc.rows
		w.TuplesOut += uint64(len(rows))
		out := &Relation{N: len(rows), Cols: make([]Col, len(b.Cols))}
		for ci, col := range b.Cols {
			var gw energy.Counters
			out.Cols[ci], gw = gatherCol(col, b.tmpl[ci], rows, lo, hi)
			w.Add(gw)
		}
		return out, w
	})
	if ctx.Canceled() {
		return nil, ErrCanceled
	}
	out := concatParts(b.tmpl, parts)
	ctx.Trace(label, out.N, total)
	return out, nil
}

// gatherCol materializes the selected rows of one stored column out of
// the window [lo, hi) (global row = lo + r) and prices the physical
// work.  A fully selected window decodes sealed segments in bulk
// (DecodeRange streams each compressed segment slice once — the reason
// join-key extraction is priced per morsel, not per row); sparse
// selections gather through a cursor (GatherRows) and pay roughly one
// cache-line touch per value.  A VARCHAR
// column gathers its codes, the template oc supplying the name, type and
// dictionary.  The counters are a pure function of (column, rows, window).
func gatherCol(col colstore.Column, oc Col, rows []int32, lo, hi int) (Col, energy.Counters) {
	n := len(rows)
	dense := n == hi-lo
	switch c := col.(type) {
	case *colstore.IntColumn:
		oc.I = make([]int64, n)
		if dense {
			return oc, c.DecodeRange(lo, hi, oc.I)
		}
		c.GatherRows(lo, rows, oc.I)
		return oc, pointReads(n, false)
	case *colstore.FloatColumn:
		oc.F = make([]float64, n)
		for i, r := range rows {
			oc.F[i] = c.Get(lo + int(r))
		}
		return oc, floatRead(n, dense)
	case *colstore.StringColumn:
		oc.I = make([]int64, n)
		codes := c.CodeColumn()
		if dense {
			return oc, codes.DecodeRange(lo, hi, oc.I)
		}
		codes.GatherRows(lo, rows, oc.I)
		return oc, pointReads(n, true)
	}
	return oc, energy.Counters{}
}

// floatRead prices reading n values of a raw DOUBLE column: streamed, 8
// bytes a row, when dense; a point read each otherwise.
func floatRead(n int, dense bool) energy.Counters {
	if dense {
		return energy.Counters{BytesReadDRAM: uint64(n) * 8, Instructions: uint64(n)}
	}
	return energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n) * 2}
}

// concatParts stitches per-morsel relations back together in morsel
// order — ascending row order.  tmpl supplies names, types, and
// dictionaries, so a zero-morsel scan still returns the right schema.
func concatParts(tmpl []Col, parts []*Relation) *Relation {
	total := 0
	for _, p := range parts {
		total += p.N
	}
	out := &Relation{N: total, Cols: make([]Col, len(tmpl))}
	for ci, oc := range tmpl {
		if oc.Type == colstore.Float64 {
			oc.F = make([]float64, 0, total)
			for _, p := range parts {
				oc.F = append(oc.F, p.Cols[ci].F...)
			}
		} else {
			oc.I = make([]int64, 0, total)
			for _, p := range parts {
				oc.I = append(oc.I, p.Cols[ci].I...)
			}
		}
		out.Cols[ci] = oc
	}
	return out
}
