package opt

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
)

// DML statements and the merge planner.  Writes get the same treatment
// as reads: a logical statement with a canonical SQL rendering, a priced
// estimate the serving front end can admit against, and — for the delta
// merge — a real plan (exec.Compact) the multi-query scheduler runs like
// any query.

// DMLKind discriminates write statements.
type DMLKind int

// The write statement kinds.
const (
	DMLInsert DMLKind = iota
	DMLUpdate
	DMLDelete
)

// String names the kind.
func (k DMLKind) String() string {
	switch k {
	case DMLInsert:
		return "INSERT"
	case DMLUpdate:
		return "UPDATE"
	case DMLDelete:
		return "DELETE"
	}
	return fmt.Sprintf("DMLKind(%d)", int(k))
}

// SetClause is one UPDATE assignment.
type SetClause struct {
	Col string
	Val expr.Value
}

// DML is a logical write statement: INSERT (Cols + Rows), UPDATE (Sets +
// Preds), or DELETE (Preds).  Like Query, it is shared by the SQL front
// end and procedural callers.
type DML struct {
	Kind  DMLKind
	Table string
	Cols  []string       // INSERT column list (empty = schema order)
	Rows  [][]expr.Value // INSERT VALUES tuples
	Sets  []SetClause    // UPDATE assignments
	Preds []expr.Pred    // UPDATE/DELETE WHERE conjunction
}

// String renders the statement back to canonical SQL (the round-trip
// form internal/sql parses back to an equivalent DML).
func (d *DML) String() string {
	var b strings.Builder
	switch d.Kind {
	case DMLInsert:
		fmt.Fprintf(&b, "INSERT INTO %s", d.Table)
		if len(d.Cols) > 0 {
			fmt.Fprintf(&b, " (%s)", strings.Join(d.Cols, ", "))
		}
		b.WriteString(" VALUES ")
		for i, row := range d.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, v := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.String())
			}
			b.WriteString(")")
		}
	case DMLUpdate:
		fmt.Fprintf(&b, "UPDATE %s SET ", d.Table)
		for i, s := range d.Sets {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %s", s.Col, s.Val.String())
		}
	case DMLDelete:
		fmt.Fprintf(&b, "DELETE FROM %s", d.Table)
	}
	if d.Kind != DMLInsert && len(d.Preds) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range d.Preds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}

// EstimateDML prices a write statement before it runs, mirroring the
// engine's accounting: inserts pay delta appends plus their REDO
// records; updates and deletes pay the predicate scan that locates their
// victims (the same formula the read path uses, so the crossovers agree)
// plus per-victim tombstone/append work.
func EstimateDML(ts *TableStats, d *DML) energy.Counters {
	var w energy.Counters
	ncols := len(ts.Cols)
	rowBytes := uint64(ncols * 10) // raw delta append, strings a shade wider
	switch d.Kind {
	case DMLInsert:
		n := uint64(len(d.Rows))
		w.BytesWrittenDRAM += n * (rowBytes + 32) // row + REDO record
		w.Instructions += n * uint64(ncols) * 4
		w.TuplesOut = n
	case DMLUpdate, DMLDelete:
		w = EstimateFullScan(ts, d.Preds, 0)
		victims := w.TuplesOut
		// Tombstone insertion (sorted) per victim; updates append the new
		// version too.
		w.Instructions += victims * 16
		w.BytesWrittenDRAM += victims * 40
		if d.Kind == DMLUpdate {
			w.BytesWrittenDRAM += victims * (rowBytes + 32)
			w.Instructions += victims * uint64(ncols) * 4
		}
		w.TuplesOut = victims
	}
	return w
}

// EstimateMerge prices compacting a table's delta, mirroring the two
// Merge paths: a tail re-seal streams the delta once per column; pending
// tombstones force a full rebuild streaming the whole table.
func EstimateMerge(t *colstore.Table) energy.Counters {
	var w energy.Counters
	ncols := uint64(len(t.Schema()))
	if n := uint64(t.Rows()); t.HasTombstones() {
		w.BytesReadDRAM += n * ncols * 8
		w.BytesWrittenDRAM += n * ncols * 8
		w.Instructions += n * ncols * 6
		w.TuplesIn += n
		w.TuplesOut += n
	} else {
		d := uint64(t.DeltaRows())
		w.BytesReadDRAM += d * ncols * 8
		w.Instructions += d * ncols * 4
		w.TuplesIn += d
		w.TuplesOut += d
	}
	return w
}

// PlanMerge plans the delta merge of a table as a query: an exec.Compact
// node dressed as a planned query — a priced estimate and a share
// signature — ready for the scheduler's admission path.  The signature
// carries the table's write epoch, so a ticket never shares with one
// planned against older table state.  horizon supplies the oldest live
// snapshot at execution time (see exec.Compact).
func PlanMerge(c *Catalog, cm *CostModel, table string, horizon func() int64) (exec.Node, *PlanInfo, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, nil, err
	}
	node := &exec.Compact{Table: t, Horizon: horizon}
	return node, &PlanInfo{
		Explain:  exec.Explain(node),
		Storage:  map[string]TableStorageInfo{},
		Est:      cm.Price(EstimateMerge(t), 0),
		ShareSig: fmt.Sprintf("MERGE %s #%d", t.Name, t.WriteEpoch()),
	}, nil
}
