package colstore

import (
	"fmt"
	"slices"
)

// Writer stages a batch of rows — column batches and/or whole rows — and
// publishes it in one atomic Close: one commit to the delta, stamped one
// past the table's last commit timestamp.  A load is such a commit; Merge
// then moves it into the main.  The transactional, WAL-durable path is
// ApplyInsert/ApplyDelete via internal/txn.  A Writer stamps the table's
// own clock, not the engine's: a snapshot already taken above zero does
// not see the batch, and the engine's next commit to the table stamps at
// or past it — so load, then seal, before serving.
//
// Methods are chainable and errors are sticky: the first staging error is
// returned by Close, which changes nothing after any error.  Staging never
// writes into a caller's slice: the first batch for a column is kept as
// given until Close copies it; a second one starts the writer's own copy,
// which later batches extend.
type Writer struct {
	t      *Table
	err    error
	closed bool
	cols   []any  // staged column batches by schema position; nil = none
	lens   []int  // their lengths
	owned  []bool // the batch is the writer's copy, not a caller's slice
	rows   []any  // Row-staged values, column-wise (nil until a Row)
}

// Writer returns a fresh batch writer for the table.
func (t *Table) Writer() *Writer {
	n := len(t.schema)
	return &Writer{t: t, cols: make([]any, n), lens: make([]int, n), owned: make([]bool, n)}
}

func (w *Writer) usable() bool {
	if w.err == nil && w.closed {
		w.err = fmt.Errorf("colstore: writer for %s used after Close", w.t.Name)
	}
	return w.err == nil
}

// stage appends vs to the batch staged for the named column of type want.
func stage[T any](w *Writer, name string, want Type, vs []T) *Writer {
	if !w.usable() {
		return w
	}
	t := w.t
	i := t.schema.ColIndex(name)
	switch {
	case i < 0:
		w.err = fmt.Errorf("colstore: table %s has no column %q", t.Name, name)
	case t.schema[i].Type != want:
		w.err = fmt.Errorf("colstore: column %s.%s is %v, not %v", t.Name, name, t.schema[i].Type, want)
	case w.cols[i] == nil:
		w.cols[i], w.lens[i] = vs, len(vs)
	default:
		cur := w.cols[i].([]T)
		if !w.owned[i] {
			cur, w.owned[i] = slices.Clip(cur), true
		}
		w.cols[i], w.lens[i] = append(cur, vs...), len(cur)+len(vs)
	}
	return w
}

// Int64 stages values for the named BIGINT column.
func (w *Writer) Int64(name string, vs ...int64) *Writer { return stage(w, name, Int64, vs) }

// Float64 stages values for the named DOUBLE column.
func (w *Writer) Float64(name string, vs ...float64) *Writer { return stage(w, name, Float64, vs) }

// String stages values for the named VARCHAR column.
func (w *Writer) String(name string, vs ...string) *Writer { return stage(w, name, String, vs) }

// Row stages one row given values in schema order (int64, float64, or
// string matching the column types).  Rows follow the column batches in
// the committed order.
func (w *Writer) Row(vals ...any) *Writer {
	if !w.usable() {
		return w
	}
	if err := w.t.CheckRow(vals...); err != nil {
		w.err = err
		return w
	}
	if w.rows == nil {
		w.rows = make([]any, len(w.cols))
	}
	appendRow(w.rows, vals)
	return w
}

// Close validates the staged batch and commits it to the delta, then
// invalidates the writer.  Column batches must form complete rows: every
// column covered, all equally long.  An empty batch commits nothing.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("colstore: writer for %s closed twice", w.t.Name)
	}
	w.closed = true
	t := w.t
	t.mu.Lock()
	defer t.mu.Unlock()
	k, staged := 0, 0
	for i, b := range w.cols {
		if b == nil {
			continue
		}
		if staged == 0 {
			k = w.lens[i]
		} else if w.lens[i] != k {
			return fmt.Errorf("colstore: writer for %s staged %d rows for %q, expected %d",
				t.Name, w.lens[i], t.schema[i].Name, k)
		}
		staged++
	}
	if staged > 0 && staged != len(t.cols) {
		return fmt.Errorf("colstore: writer for %s covers %d of %d columns", t.Name, staged, len(t.cols))
	}
	if k == 0 && w.rows == nil {
		return nil
	}
	t.appendLocked(t.lastTS+1, 0, w.cols, w.rows)
	return nil
}
