package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/workload"
)

// The oracle is a naive row-at-a-time evaluator over the generated Go
// slices.  It never calls the engine: every response the server sends is
// compared with what a loop over the rows says the answer is.

// pred is an integer comparison on an orders or customers column.
type pred struct {
	col string
	op  string // "=" or "<="
	val int64
}

// querySpec is the one query shape the workloads use:
//
//	SELECT [g,] COUNT(*), SUM(s) FROM orders [JOIN customers ON custkey = ckey]
//	[WHERE p AND ...] [GROUP BY g]
//
// The SQL text the server receives and the oracle's answer are both
// derived from it.
type querySpec struct {
	preds   []pred
	join    bool
	groupBy string // "", "region", "custkey" or "segment"
	sumCol  string // "amount" (float) or "day" (int)
}

func (q querySpec) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.groupBy != "" {
		b.WriteString(q.groupBy + ", ")
	}
	b.WriteString("COUNT(*), SUM(" + q.sumCol + ") FROM orders")
	if q.join {
		b.WriteString(" JOIN customers ON custkey = ckey")
	}
	for i, p := range q.preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s %s %d", p.col, p.op, p.val)
	}
	if q.groupBy != "" {
		b.WriteString(" GROUP BY " + q.groupBy)
	}
	return b.String()
}

// writeKind is the DML verb of a writeSpec.
type writeKind int

const (
	writeInsert writeKind = iota
	writeUpdate
	writeDelete
)

// writeSpec is one DML statement: INSERT of a whole row, UPDATE of
// amount by id, or DELETE by id.
type writeSpec struct {
	kind    writeKind
	id      int64
	custkey int64
	region  int64 // index into workload.RegionNames
	amount  float64
	day     int64
}

// amountLit renders an amount so the SQL lexer reads it as a float and
// parses back the identical float64 (amounts are whole cents).
func amountLit(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func (w writeSpec) sql() string {
	switch w.kind {
	case writeInsert:
		return fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, '%s', %s, %d)",
			w.id, w.custkey, workload.RegionNames[w.region], amountLit(w.amount), w.day)
	case writeUpdate:
		return fmt.Sprintf("UPDATE orders SET amount = %s WHERE id = %d", amountLit(w.amount), w.id)
	default:
		return fmt.Sprintf("DELETE FROM orders WHERE id = %d", w.id)
	}
}

// userBytes is the size of the values the statement carries — the
// denominator of WAL bytes per user byte.
func (w writeSpec) userBytes() int {
	switch w.kind {
	case writeInsert:
		return 4*8 + len(workload.RegionNames[w.region])
	case writeUpdate:
		return 2 * 8
	default:
		return 8
	}
}

// agg is one output group's aggregates; sumI or sumF is used according
// to the summed column's type.
type agg struct {
	count int64
	sumI  int64
	sumF  float64
}

// oracle holds the current logical contents of both tables.
type oracle struct {
	mu sync.Mutex // mixed_rw clients apply writes and evaluate reads concurrently

	// Every per-row column is pointer-free, so the garbage collector of
	// the process the oracle shares with the server never scans them.
	id, custkey, day []int64
	region           []int64 // index into workload.RegionNames
	amount           []float64
	dead             []bool

	custRow map[int64]int // customers.ckey -> customers row
	segment []string
	tier    []int64

	// byCust and inserted locate rows for point reads and for
	// UPDATE/DELETE victims without a full pass; plain lookups kept up
	// to date on insert, so still nothing the engine computed.  Loaded
	// ids are dense from 1, so only inserted ids need a map.
	byCust   map[int64][]int32
	loaded   int
	inserted map[int64]int

	// ledger is COUNT(*) and SUM(amount) per custkey, kept current by
	// apply.  A mixed_rw client checks each timed read against it in
	// O(1): evaluating the hottest key row by row (150K rows) on every
	// read cost the two cores the harness shares with the server a third
	// of the workload's throughput.  The sweep after the run ties the
	// ledger back to the row-at-a-time evaluation.
	ledger map[int64]agg
}

// newOracle starts from the generated dataset.  Columns that writes only
// append to share the dataset's backing arrays (capped, so an append
// copies); amount, which UPDATE overwrites in place, is copied.
func newOracle(d *dataset) *oracle {
	n := len(d.orders.OrderID)
	o := &oracle{
		id:       d.orders.OrderID[:n:n],
		custkey:  d.orders.CustKey[:n:n],
		day:      d.orders.OrderDay[:n:n],
		region:   d.orders.Region[:n:n],
		amount:   append([]float64(nil), d.orders.Amount...),
		dead:     make([]bool, n),
		custRow:  make(map[int64]int, len(d.ckey)),
		segment:  d.segment,
		tier:     d.tier,
		byCust:   make(map[int64][]int32),
		loaded:   n,
		inserted: make(map[int64]int),
		ledger:   make(map[int64]agg),
	}
	for i, k := range d.ckey {
		o.custRow[k] = i
	}
	for r, k := range o.custkey {
		o.byCust[k] = append(o.byCust[k], int32(r))
		o.credit(k, 1, o.amount[r])
	}
	return o
}

// credit adjusts a custkey's ledger entry by rows and amount.
func (o *oracle) credit(custkey, rows int64, amount float64) {
	a := o.ledger[custkey]
	a.count += rows
	a.sumF += amount
	o.ledger[custkey] = a
}

// point answers pointSpec(custkey) from the ledger.
func (o *oracle) point(custkey int64) map[string]agg {
	o.mu.Lock()
	defer o.mu.Unlock()
	if a := o.ledger[custkey]; a.count > 0 {
		return map[string]agg{"": a}
	}
	return map[string]agg{}
}

// rowOf finds the row holding an id.
func (o *oracle) rowOf(id int64) (int, bool) {
	if id >= 1 && id <= int64(o.loaded) {
		return int(id - 1), true
	}
	r, ok := o.inserted[id]
	return r, ok
}

// intCol returns the value of an integer column at orders row r (for
// customers columns, at the joined customers row c).
func (o *oracle) intCol(col string, r, c int) int64 {
	switch col {
	case "id":
		return o.id[r]
	case "custkey":
		return o.custkey[r]
	case "day":
		return o.day[r]
	case "tier":
		return o.tier[c]
	}
	panic("oracle: unknown integer column " + col)
}

// eval answers q by visiting rows one at a time.
func (o *oracle) eval(q querySpec) map[string]agg {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]agg)
	visit := func(r int) {
		if o.dead[r] {
			return
		}
		c := -1
		if q.join {
			var ok bool
			if c, ok = o.custRow[o.custkey[r]]; !ok {
				return // inner join: no matching customer
			}
		}
		for _, p := range q.preds {
			v := o.intCol(p.col, r, c)
			if (p.op == "=" && v != p.val) || (p.op == "<=" && v > p.val) {
				return
			}
		}
		var key string
		switch q.groupBy {
		case "region":
			key = workload.RegionNames[o.region[r]]
		case "custkey":
			key = strconv.FormatInt(o.custkey[r], 10)
		case "segment":
			key = o.segment[c]
		}
		a := out[key]
		a.count++
		if q.sumCol == "amount" {
			a.sumF += o.amount[r]
		} else {
			a.sumI += o.intCol(q.sumCol, r, c)
		}
		out[key] = a
	}
	// A custkey equality narrows the candidates to that key's rows; any
	// other query visits every row.
	for _, p := range q.preds {
		if p.col == "custkey" && p.op == "=" {
			for _, r := range o.byCust[p.val] {
				visit(int(r))
			}
			return out
		}
	}
	for r := range o.id {
		visit(r)
	}
	return out
}

// apply replays one acknowledged write onto the oracle's tables.
func (o *oracle) apply(w writeSpec) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if w.kind == writeInsert {
		if _, dup := o.rowOf(w.id); dup {
			return fmt.Errorf("oracle: insert of existing id %d", w.id)
		}
		r := len(o.id)
		o.id = append(o.id, w.id)
		o.custkey = append(o.custkey, w.custkey)
		o.day = append(o.day, w.day)
		o.region = append(o.region, w.region)
		o.amount = append(o.amount, w.amount)
		o.dead = append(o.dead, false)
		o.byCust[w.custkey] = append(o.byCust[w.custkey], int32(r))
		o.inserted[w.id] = r
		o.credit(w.custkey, 1, w.amount)
		return nil
	}
	r, ok := o.rowOf(w.id)
	if !ok || o.dead[r] {
		return fmt.Errorf("oracle: write to missing id %d", w.id)
	}
	if w.kind == writeUpdate {
		o.credit(o.custkey[r], 0, w.amount-o.amount[r])
		o.amount[r] = w.amount
	} else {
		o.credit(o.custkey[r], -1, -o.amount[r])
		o.dead[r] = true
	}
	return nil
}

// floatTol is the relative tolerance on float sums: the engine adds in
// morsel order, the oracle in row order.
const floatTol = 1e-9

// queryBody is the part of a /v1/query 200 body the harness reads.
type queryBody struct {
	Rows   json.RawMessage `json:"rows"`
	Energy struct {
		Joules float64 `json:"joules"`
	} `json:"energy"`
}

// checkRows compares a response's rows with the oracle's answer: same
// groups, integer aggregates exact, float sums within floatTol.
func checkRows(raw json.RawMessage, q querySpec, want map[string]agg) error {
	var rows [][]json.RawMessage
	if err := json.Unmarshal(raw, &rows); err != nil {
		return fmt.Errorf("rows: %w", err)
	}
	if len(rows) != len(want) {
		return fmt.Errorf("got %d rows, oracle has %d groups", len(rows), len(want))
	}
	cols := 2
	if q.groupBy != "" {
		cols = 3
	}
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		if len(row) != cols {
			return fmt.Errorf("row has %d columns, want %d", len(row), cols)
		}
		key := ""
		if q.groupBy != "" {
			key = string(row[0])
			if q.groupBy != "custkey" { // string group keys arrive JSON-quoted
				if err := json.Unmarshal(row[0], &key); err != nil {
					return fmt.Errorf("group key %s: %w", row[0], err)
				}
			}
			row = row[1:]
		}
		w, ok := want[key]
		if !ok || seen[key] {
			return fmt.Errorf("unexpected or repeated group %q", key)
		}
		seen[key] = true
		if got := string(row[0]); got != strconv.FormatInt(w.count, 10) {
			return fmt.Errorf("group %q: count %s, oracle %d", key, got, w.count)
		}
		if q.sumCol == "amount" {
			got, err := strconv.ParseFloat(string(row[1]), 64)
			if err != nil {
				return fmt.Errorf("group %q: sum %s: %w", key, row[1], err)
			}
			if math.Abs(got-w.sumF) > floatTol*math.Abs(w.sumF) {
				return fmt.Errorf("group %q: sum %v, oracle %v", key, got, w.sumF)
			}
		} else if got := string(row[1]); got != strconv.FormatInt(w.sumI, 10) {
			return fmt.Errorf("group %q: sum %s, oracle %d", key, got, w.sumI)
		}
	}
	return nil
}

// writeBody is the part of a /v1/write 200 body the harness reads.
type writeBody struct {
	Matched int   `json:"matched"`
	Applied int   `json:"applied"`
	TS      int64 `json:"ts"`
	Work    struct {
		BytesWrittenSSD uint64
	} `json:"work"`
	Energy struct {
		Joules float64 `json:"joules"`
	} `json:"energy"`
}

// checkWrite verifies an acknowledged write touched exactly its one row.
func checkWrite(b writeBody, w writeSpec) error {
	if b.Applied != 1 {
		return fmt.Errorf("%s applied %d rows, want 1", w.sql(), b.Applied)
	}
	if w.kind != writeInsert && b.Matched != 1 {
		return fmt.Errorf("%s matched %d rows, want 1", w.sql(), b.Matched)
	}
	if b.TS <= 0 {
		return fmt.Errorf("%s acknowledged without a commit timestamp", w.sql())
	}
	return nil
}
