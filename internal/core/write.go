package core

import (
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/txn"
	"repro/internal/vec"
)

// The engine's write path: DML statements execute synchronously at
// their virtual arrival time — INSERT appends to the table's delta,
// UPDATE/DELETE locate victims with the same filter kernel reads use
// (exec's Binding.Filter), and all of it commits through the
// transaction manager (first-committer-wins validation, REDO logging,
// group-commit durability).  The work is priced by the engine's one
// bill, as a query's is.

// DMLResult reports one executed write statement.
type DMLResult struct {
	Stmt    string // canonical SQL
	Kind    opt.DMLKind
	Table   string
	Matched int   // rows the WHERE clause selected (UPDATE/DELETE)
	Applied int   // rows affected: inserted, updated, or deleted
	TS      int64 // commit timestamp
	Flushed bool  // paid a WAL flush (false = rode the group-commit window)
	Latency time.Duration
	Work    energy.Counters // victim scan + delta writes + durability
	Energy  energy.Breakdown
}

// Joules returns the modeled total energy of the write.
func (r *DMLResult) Joules() energy.Joules { return r.Energy.Total() }

// EstimateDML prices a write statement from catalog statistics without
// executing it — the serving front end's admission gate (per-client
// budgets charge this estimate, never the measured bill, so rejections
// stay schedule-invariant).
func (e *Engine) EstimateDML(d *opt.DML) (opt.Cost, error) {
	ts, err := e.cat.Stats(d.Table)
	if err != nil {
		return opt.Cost{}, err
	}
	return e.cm.Price(opt.EstimateDML(ts, d), 0), nil
}

// dmlTarget is the table a statement writes.
type dmlTarget struct {
	t      *colstore.Table
	schema colstore.Schema
	// hit marks that the statement buffered a write, so the post-commit
	// catalog refresh runs only when the table changed.
	hit bool
}

func (e *Engine) dmlTarget(name string) (*dmlTarget, error) {
	t, err := e.cat.Table(name)
	if err != nil {
		return nil, err
	}
	return &dmlTarget{t: t, schema: t.Schema()}, nil
}

// slot returns the schema slot of a column.
func (t *dmlTarget) slot(col string) (int, error) {
	if si := t.schema.ColIndex(col); si >= 0 {
		return si, nil
	}
	return 0, fmt.Errorf("core: table %s has no column %q", t.t.Name, col)
}

// ExecDML executes one write statement, committing at virtual arrival
// time `at` (which paces the group-commit window).  A statement commits
// at one timestamp.  Conflicts surface as txn.ErrConflict.  The statement holds the data latch exclusively: it
// starts once every query execution dispatched before it has finished,
// and none starts until it returns.
func (e *Engine) ExecDML(d *opt.DML, at time.Duration) (*DMLResult, error) {
	e.latch.Lock()
	defer e.latch.Unlock()
	tgt, err := e.dmlTarget(d.Table)
	if err != nil {
		return nil, err
	}
	res := &DMLResult{Stmt: d.String(), Kind: d.Kind, Table: d.Table}
	var work energy.Counters
	tx := e.txm.Begin()
	switch d.Kind {
	case opt.DMLInsert:
		err = bufferInserts(tx, tgt, d, &work)
	case opt.DMLUpdate, opt.DMLDelete:
		res.Matched, err = bufferMutations(tx, tgt, d, &work)
	default:
		err = fmt.Errorf("core: unknown DML kind %v", d.Kind)
	}
	if err != nil {
		tx.Abort()
		return nil, err
	}
	info, err := tx.Commit(at)
	if err != nil {
		return nil, err
	}
	work.Add(info.Work)
	res.Applied = info.Applied
	if d.Kind == opt.DMLUpdate {
		// The log counts an update as tombstone + new version; the
		// statement affected Matched rows.
		res.Applied = res.Matched
	}
	res.TS = info.TS
	res.Flushed = info.Flushed
	res.Latency = info.Latency
	res.Work = work
	res.Energy = e.bill(work)
	// Keep planner estimates (and with them admission pricing) tracking
	// the table the statement just changed.
	if tgt.hit {
		if err := e.cat.Refresh(d.Table); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bufferInserts validates INSERT tuples against the schema and buffers
// them in schema order.  Every schema column must be covered — delta rows
// are whole rows.
func bufferInserts(tx *txn.TableTx, tgt *dmlTarget, d *opt.DML, work *energy.Counters) error {
	schema := tgt.schema
	cols := d.Cols
	if len(cols) == 0 {
		cols = make([]string, len(schema))
		for i, def := range schema {
			cols[i] = def.Name
		}
	}
	if len(cols) != len(schema) {
		return fmt.Errorf("core: INSERT INTO %s must cover all %d columns, got %d", d.Table, len(schema), len(cols))
	}
	pos := make([]int, len(cols)) // tuple slot -> schema slot
	for i, c := range cols {
		si, err := tgt.slot(c)
		if err != nil {
			return err
		}
		pos[i] = si
	}
	for _, row := range d.Rows {
		if len(row) != len(cols) {
			return fmt.Errorf("core: INSERT INTO %s: tuple has %d values, want %d", d.Table, len(row), len(cols))
		}
		vals := make([]any, len(schema))
		for i, v := range row {
			av, err := coerceValue(v, schema[pos[i]].Type, schema[pos[i]].Name)
			if err != nil {
				return err
			}
			vals[pos[i]] = av
		}
		tgt.hit = true
		tx.Insert(tgt.t, vals...)
		work.BytesWrittenDRAM += uint64(len(schema)) * 10
		work.Instructions += uint64(len(schema)) * 4
		work.TuplesOut++
	}
	return nil
}

// bufferMutations locates UPDATE/DELETE victims with the scan's own
// filter kernel at the transaction's snapshot, then buffers the mutations
// in row order: DELETE tombstones the victim in place; UPDATE tombstones
// it and appends the new version.
func bufferMutations(tx *txn.TableTx, tgt *dmlTarget, d *opt.DML, work *energy.Counters) (int, error) {
	schema := tgt.schema
	preds := make([]expr.Pred, len(d.Preds))
	for i, p := range d.Preds {
		si, err := tgt.slot(p.Col)
		if err != nil {
			return 0, err
		}
		if preds[i], err = coercePredTo(p, schema[si].Type); err != nil {
			return 0, err
		}
	}
	b, err := (&exec.Scan{Source: tgt.t, Preds: preds}).Bind()
	if err != nil {
		return 0, err
	}
	snap := tx.Snapshot()
	var sel, scratch vec.Bitvec
	work.Add(b.Filter(snap, 0, tgt.t.RowsAsOf(snap), &sel, &scratch))
	victims := sel.AppendIndices(nil)

	var sets []setTarget
	if d.Kind == opt.DMLUpdate {
		for _, s := range d.Sets {
			si, err := tgt.slot(s.Col)
			if err != nil {
				return 0, err
			}
			av, err := coerceValue(s.Val, schema[si].Type, s.Col)
			if err != nil {
				return 0, err
			}
			sets = append(sets, setTarget{slot: si, val: av})
		}
	}
	tgt.hit = len(victims) > 0
	for _, r := range victims {
		row := int(r)
		id := tgt.t.RowID(row)
		if d.Kind == opt.DMLDelete {
			tx.Delete(tgt.t, id)
			work.Instructions += 16
			work.BytesWrittenDRAM += 40
			continue
		}
		// UPDATE: read the current version, apply the assignments, append
		// the new version (point reads priced like the index verify path).
		vals := make([]any, len(schema))
		for si := range schema {
			switch c := b.Cols[si].(type) {
			case *colstore.IntColumn:
				vals[si] = c.Get(row)
			case *colstore.FloatColumn:
				vals[si] = c.Get(row)
			case *colstore.StringColumn:
				vals[si] = c.Get(row)
			}
			work.CacheMisses++
			work.Instructions += 6
		}
		for _, s := range sets {
			vals[s.slot] = s.val
		}
		tx.Update(tgt.t, id, vals...)
		work.Instructions += 16 + uint64(len(schema))*4
		work.BytesWrittenDRAM += 40 + uint64(len(schema))*10
	}
	return len(victims), nil
}

type setTarget struct {
	slot int
	val  any
}

// coerceValue adapts a literal to the column type (the same numeric
// widening the planner applies to predicates).
func coerceValue(v expr.Value, typ colstore.Type, col string) (any, error) {
	switch typ {
	case colstore.Int64:
		if v.Kind == colstore.Int64 {
			return v.I, nil
		}
		if v.Kind == colstore.Float64 && float64(int64(v.F)) == v.F {
			return int64(v.F), nil
		}
	case colstore.Float64:
		if v.Kind == colstore.Float64 {
			return v.F, nil
		}
		if v.Kind == colstore.Int64 {
			return float64(v.I), nil
		}
	case colstore.String:
		if v.Kind == colstore.String {
			return v.S, nil
		}
	}
	return nil, fmt.Errorf("core: value %s does not fit column %q (%v)", v, col, typ)
}

// coercePredTo adapts a predicate literal to the column type.
func coercePredTo(p expr.Pred, typ colstore.Type) (expr.Pred, error) {
	switch {
	case typ == colstore.Float64 && p.Val.Kind == colstore.Int64:
		p.Val = expr.FloatVal(float64(p.Val.I))
	case typ == colstore.Int64 && p.Val.Kind == colstore.Float64:
		i := int64(p.Val.F)
		if float64(i) != p.Val.F {
			return p, fmt.Errorf("core: non-integral literal %g compared with BIGINT column %q", p.Val.F, p.Col)
		}
		p.Val = expr.IntVal(i)
	case typ == colstore.String && p.Val.Kind != colstore.String:
		return p, fmt.Errorf("core: numeric literal compared with VARCHAR column %q", p.Col)
	case typ != colstore.String && p.Val.Kind == colstore.String:
		return p, fmt.Errorf("core: string literal compared with numeric column %q", p.Col)
	}
	return p, nil
}

// Recover replays the engine's REDO log into its tables — records
// address tables by name — then refreshes their statistics: the
// post-crash path (see WithLog).  Returns the number of records applied; replay is
// idempotent, so recovering twice (or over partially applied state)
// changes nothing.
//
//lint:allow reach: README crash-recovery API, ROADMAP item 9; core recovery tests
func (e *Engine) Recover() (int, error) {
	applied, err := e.txm.Replay(func(name string) *colstore.Table {
		t, _ := e.cat.Table(name)
		return t
	})
	if err != nil {
		return applied, err
	}
	for _, name := range e.cat.Tables() {
		if rerr := e.cat.Refresh(name); rerr != nil {
			return applied, rerr
		}
	}
	return applied, nil
}
