package exec

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Scan reads a base table with conjunctive predicates pushed down.  Its
// source is the table's shard list — a flat table is the one-shard case,
// a value-range-sharded table contributes one shard per key range — and
// there is one scan whatever the count: whole shards are pruned against
// the predicates before a morsel is enumerated (pruned shards charge
// their logical rows and zero physical bytes, the zone-map convention
// one level up), every surviving shard is cut into the fixed morsel grid
// and filtered by the one kernel (ShardBinding.Filter) on a pool of
// Ctx.DOP() workers, each morsel materializes its slice of the
// projection, and the coordinator concatenates the slices in morsel
// order.  A table under one morsel is one task, so the serial scan is
// the DOP-clipped case of the same code.  Across more than one shard
// the hidden global row sequence is selected alongside the projection
// and a k-way merge by it restores the unsharded row order, so output
// rows, their order, and the charged counters are a pure function of
// (snapshot, predicates) at every DOP and shard count.
type Scan struct {
	Source *colstore.ShardedTable
	Select []string // output columns; empty = all user columns
	Preds  []expr.Pred
}

// Label implements Node.
func (s *Scan) Label() string {
	head := fmt.Sprintf("Scan(%s)", s.Source.Name)
	if k := s.Source.NumShards(); k > 1 {
		head = fmt.Sprintf("Scan(%s, shards=%d)", s.Source.Name, k)
	}
	parts := []string{head}
	for _, p := range s.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ")
}

// Kids implements Node.
func (s *Scan) Kids() []Node { return nil }

// Binding is a Scan resolved against its source once, before any worker
// starts, so morsel bodies cannot fail: the effective projection and one
// ShardBinding per shard.
type Binding struct {
	Shards []*ShardBinding
	tmpl   []Col // projected user columns: names and types, no data
}

// ShardBinding is one shard of a bound scan: its projected columns, its
// type-checked predicate columns, and the zone-pruning verdict.
type ShardBinding struct {
	Table *colstore.Table
	// Pruned reports that the predicates cannot touch any row of this
	// shard (see PruneShards); consumers skip it without enumerating a
	// morsel.  Never set on a lone shard.
	Pruned bool
	// Cols are the projected stored columns in projection order, followed
	// by Seq when it is bound.
	Cols []colstore.Column
	// Seq is the hidden global row sequence, bound only when the source
	// has more than one shard (it orders rows and groups across shards).
	Seq *colstore.IntColumn

	preds    []expr.Pred
	predCols []colstore.Column
	tmpl     []Col // per Cols entry: name, type, a VARCHAR column's dictionary
}

// multi reports whether the source has more than one shard — the only
// case that selects the sequence column, tracks first appearances, and
// pays a sequence merge.
func (b *Binding) multi() bool { return len(b.Shards) > 1 }

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

// Bind resolves the scan against its source: projection, predicate
// columns, predicate type checks, dictionaries, shard pruning.
func (s *Scan) Bind() (*Binding, error) { return s.bind(true) }

// bind is Bind with the sequence column optional: the build side of a
// co-partitioned join never orders anything and leaves it out.
func (s *Scan) bind(withSeq bool) (*Binding, error) {
	if s.Source == nil {
		return nil, fmt.Errorf("exec: scan has no source table")
	}
	name, schema, shards := s.Source.Name, s.Source.Schema(), s.Source.Shards()
	keep := PruneShards(shards, s.Preds)
	names := s.Select
	if len(names) == 0 {
		for _, d := range schema {
			names = append(names, d.Name)
		}
	}
	b := &Binding{tmpl: make([]Col, len(names)), Shards: make([]*ShardBinding, len(shards))}
	for i, n := range names {
		ci := schema.ColIndex(n)
		if ci < 0 {
			return nil, fmt.Errorf("exec: table %s has no column %q", name, n)
		}
		b.tmpl[i] = Col{Name: n, Type: schema[ci].Type}
	}
	for i, sh := range shards {
		sb := &ShardBinding{Table: sh, Pruned: !keep[i], preds: s.Preds}
		for _, n := range names {
			c, err := sh.Column(n)
			if err != nil {
				return nil, err
			}
			sb.Cols = append(sb.Cols, c)
		}
		for _, p := range s.Preds {
			c, err := sh.Column(p.Col)
			if err != nil {
				return nil, err
			}
			if err := checkPredType(c, p); err != nil {
				return nil, err
			}
			sb.predCols = append(sb.predCols, c)
		}
		sb.tmpl = append([]Col(nil), b.tmpl...)
		for ci, c := range sb.Cols {
			if sc, ok := c.(*colstore.StringColumn); ok {
				sb.tmpl[ci].Dict = sc.Dict() // once per Bind: every morsel shares it
			}
		}
		if len(shards) > 1 && withSeq {
			seq, err := sh.IntCol(colstore.ShardSeqCol)
			if err != nil {
				return nil, err
			}
			sb.Seq = seq
			sb.Cols = append(sb.Cols, seq)
			sb.tmpl = append(sb.tmpl, Col{Name: colstore.ShardSeqCol, Type: colstore.Int64})
		}
		b.Shards[i] = sb
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

// PruneShards reports, per shard of one table, whether the predicates
// can touch any of its rows.  The decision reads live per-shard column
// min/max (zone stats over all physical rows — conservative for every
// snapshot), so pruning is always safe even when planner statistics are
// stale.  Only BIGINT predicates prune; anything unresolvable keeps the
// shard.  A lone shard is never pruned: with nothing beside it to skip
// to, its own segment zone maps already make the same decision and
// charge for it, empty or disjoint alike.
func PruneShards(shards []*colstore.Table, preds []expr.Pred) []bool {
	keep := make([]bool, len(shards))
	if len(shards) == 1 {
		keep[0] = true
		return keep
	}
	for i, sh := range shards {
		if sh.Rows() == 0 {
			continue // empty shard: nothing to scan
		}
		keep[i] = true
		for _, p := range preds {
			if p.Val.Kind != colstore.Int64 {
				continue
			}
			c, err := sh.IntCol(p.Col)
			if err != nil {
				continue
			}
			min, max, ok := c.MinMax()
			if ok && predDisjoint(p.Op, p.Val.I, min, max) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// predDisjoint reports whether `col op v` can match nothing when every
// value of col lies in [min, max].
func predDisjoint(op vec.CmpOp, v, min, max int64) bool {
	switch op {
	case vec.EQ:
		return v < min || v > max
	case vec.NE:
		return min == max && min == v
	case vec.LT:
		return min >= v
	case vec.LE:
		return min > v
	case vec.GT:
		return max <= v
	case vec.GE:
		return max < v
	}
	return false
}

// Filter is the one scan kernel: it evaluates the bound predicates over
// rows [lo, hi) of the shard through the zone-map-pruned operate-on-
// compressed column kernels (colstore's ScanRows dispatching per segment
// codec: RLE runs, delta boundary search, dictionary code rewrite,
// bit-packed SWAR), masks rows invisible at snap, and returns the
// selection over the window (bit i = row lo+i) with the physical work it
// cost.  Materialization, the fused aggregate and probe kernels, the
// co-partitioned join, and the engine's UPDATE/DELETE victim search all
// consume its selection vector.  Tombstone masking charges per visible
// tombstone in the window — like the predicate kernels a function of
// (snapshot, window) alone, so any morsel sweep is DOP-invariant.
//
// The selection is written into the caller's sel (resized to the window):
// the first predicate's kernels write it directly; only a second or later
// predicate scans into scratch, which is ANDed in.  A predicate-free
// window selects every row.
func (sb *ShardBinding) Filter(snap int64, lo, hi int, sel, scratch *vec.Bitvec) energy.Counters {
	nrows := hi - lo
	sel.Resize(nrows)
	if len(sb.preds) == 0 {
		sel.SetAll()
	}
	var w energy.Counters
	for i, p := range sb.preds {
		pb := sel
		if i > 0 {
			scratch.Resize(nrows)
			pb = scratch
		}
		switch c := sb.predCols[i].(type) {
		case *colstore.IntColumn:
			w.Add(c.ScanRows(p.Op, p.Val.I, lo, hi, pb))
		case *colstore.FloatColumn:
			w.Add(c.ScanRows(p.Op, p.Val.F, lo, hi, pb))
		case *colstore.StringColumn:
			w.Add(c.ScanRows(p.Op, p.Val.S, lo, hi, pb))
		}
		if i > 0 {
			sel.And(pb)
		}
	}
	w.Add(sb.Table.FilterVisible(snap, lo, hi, sel))
	return w
}

// selectRows is Filter for the read path, into the worker's scratch, whose
// scan stage books its logical input even when no predicate streamed a
// column: a predicate-free window still considered its rows.  (Callers
// book the selected count as the stage's output.)
func (sb *ShardBinding) selectRows(snap int64, lo, hi int, sc *morselScratch) (*vec.Bitvec, energy.Counters) {
	w := sb.Filter(snap, lo, hi, &sc.sel, &sc.pred)
	if len(sb.preds) == 0 {
		w.TuplesIn += uint64(hi - lo)
	}
	return &sc.sel, w
}

// eachShard runs fn over every surviving shard in shard order and
// charges the pruned shards' logical rows: they were considered, but not
// a single byte of them streamed.
func (b *Binding) eachShard(ctx *Ctx, fn func(i int, sb *ShardBinding) error) error {
	var prunedRows uint64
	npruned := 0
	for i, sb := range b.Shards {
		if sb.Pruned {
			prunedRows += uint64(sb.Table.RowsAsOf(ctx.SnapTS))
			npruned++
			continue
		}
		if err := fn(i, sb); err != nil {
			return err
		}
	}
	if npruned > 0 {
		ctx.Charge(fmt.Sprintf("shard-prune(%d/%d)", npruned, len(b.Shards)), 0,
			energy.Counters{TuplesIn: prunedRows})
	}
	return nil
}

// Run implements Node.
func (s *Scan) Run(ctx *Ctx) (*Relation, error) {
	b, err := s.Bind()
	if err != nil {
		return nil, err
	}
	var parts []*Relation
	name := s.Label()
	err = b.eachShard(ctx, func(i int, sb *ShardBinding) error {
		label := name
		if b.multi() {
			label = fmt.Sprintf("%s [shard %d]", name, i)
		}
		rel, err := sb.scan(ctx, label)
		parts = append(parts, rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !b.multi() && len(parts) == 1 {
		return parts[0], nil
	}
	out, w := mergeBySeq(parts, b.tmpl)
	if len(parts) > 1 {
		// A single surviving shard needs no interleave (its rows are
		// already in global order), as concatParts stitches morsels for free.
		ctx.Charge(fmt.Sprintf("shard-merge(%d shards)", len(parts)), out.N, w)
	}
	return out, nil
}

// scan filters and materializes the shard morsel-wise at the context's
// snapshot.  The snapshot fixes the scan prefix — and with it the morsel
// grid — at admission, so concurrent writes never perturb results,
// counters, or the work distribution.
func (sb *ShardBinding) scan(ctx *Ctx, label string) (*Relation, error) {
	snap := ctx.SnapTS
	parts, total := runMorsels(ctx, sb.Table.RowsAsOf(snap), func(m, lo, hi int) (*Relation, energy.Counters) {
		sc := scratchPool.Get().(*morselScratch)
		defer scratchPool.Put(sc)
		sel, w := sb.selectRows(snap, lo, hi, sc)
		sc.rows = sel.AppendIndices(sc.rows[:0])
		rows := sc.rows
		w.TuplesOut += uint64(len(rows))
		out := &Relation{N: len(rows), Cols: make([]Col, len(sb.Cols))}
		for ci, col := range sb.Cols {
			var gw energy.Counters
			out.Cols[ci], gw = gatherCol(col, sb.tmpl[ci], rows, lo, hi)
			w.Add(gw)
		}
		return out, w
	})
	if ctx.Canceled() {
		return nil, ErrCanceled
	}
	out := concatParts(sb.tmpl, parts)
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

// seqMerger interleaves per-shard relations by their sequence column:
// flat cursor and source arrays only, one linear min-scan per output row
// (shard counts are small), no hashing and no maps.
//
//lint:hotpath
type seqMerger struct {
	seqs [][]int64 // per part: its sequence column
	idx  []int     // per part: cursor
	part []int32   // per output row: source part
	row  []int32   // per output row: row within the source part
}

// mergeBySeq merges the parts (each carrying a ShardSeqCol column, each
// ascending in it) into one relation in global sequence order, dropping
// the sequence column, and prices the merge.  tmpl supplies the output
// schema for the zero-part case.  Sequences are globally unique, so the
// order — and therefore the output bytes — is total and deterministic.
// It is the one place per-shard VARCHAR columns (from Scan and
// ShardedJoin) meet: their dictionaries become one (unionDict), and each
// code is rewritten through its part's translation array as it is copied.
func mergeBySeq(parts []*Relation, tmpl []Col) (*Relation, energy.Counters) {
	total := 0
	for _, p := range parts {
		total += p.N
	}
	m := &seqMerger{
		seqs: make([][]int64, len(parts)),
		idx:  make([]int, len(parts)),
		part: make([]int32, total),
		row:  make([]int32, total),
	}
	seqIdx := -1
	for pi, p := range parts {
		for ci := range p.Cols {
			if p.Cols[ci].Name == colstore.ShardSeqCol {
				seqIdx = ci
				m.seqs[pi] = p.Cols[ci].I
				break
			}
		}
	}
	for o := 0; o < total; o++ {
		best := -1
		var bs int64
		for pi := range parts {
			if m.idx[pi] >= parts[pi].N {
				continue
			}
			if s := m.seqs[pi][m.idx[pi]]; best < 0 || s < bs {
				best, bs = pi, s
			}
		}
		m.part[o] = int32(best)
		m.row[o] = int32(m.idx[best])
		m.idx[best]++
	}

	out := &Relation{N: total, Cols: make([]Col, len(tmpl))}
	var w energy.Counters
	srcs := make([]*Col, len(parts))
	for oi := range tmpl {
		oc := Col{Name: tmpl[oi].Name, Type: tmpl[oi].Type}
		// Source column index: same position, skipping the sequence column.
		ci := oi
		if seqIdx >= 0 && ci >= seqIdx {
			ci++
		}
		for pi, p := range parts {
			srcs[pi] = &p.Cols[ci]
		}
		if oc.Type == colstore.Float64 {
			oc.F = make([]float64, total)
			for o := range oc.F {
				oc.F[o] = srcs[m.part[o]].F[m.row[o]]
			}
			out.Cols[oi] = oc
			continue
		}
		var trans [][]int64
		if oc.Type == colstore.String {
			var uw energy.Counters
			oc.Dict, trans, uw = unionDict(srcs)
			w.Add(uw)
		}
		oc.I = make([]int64, total)
		for o := range oc.I {
			v := srcs[m.part[o]].I[m.row[o]]
			if trans != nil {
				v = trans[m.part[o]][v]
			}
			oc.I[o] = v
		}
		out.Cols[oi] = oc
	}
	moved := out.Bytes()
	w.Add(energy.Counters{
		TuplesIn:         uint64(total),
		TuplesOut:        uint64(total),
		Instructions:     uint64(total) * uint64(len(parts)),
		BytesReadDRAM:    moved,
		BytesWrittenDRAM: moved,
	})
	return out, w
}

// unionDict is the one dictionary of the same VARCHAR column read from
// several shards: the first column's entries in code order, then each
// later column's entries not yet seen.  trans[p][code] is column p's code
// in the union; trans is nil when the columns already share one
// dictionary.  It is priced as the dictionary bytes read plus the
// translation codes written — the rewrite itself is one array load per
// code the merge copies anyway.
func unionDict(cols []*Col) ([]string, [][]int64, energy.Counters) {
	var first []string
	if len(cols) > 0 {
		first = cols[0].Dict
	}
	shared := true
	for _, c := range cols {
		shared = shared && sameDict(c.Dict, first)
	}
	if shared {
		return first, nil, energy.Counters{}
	}
	ids := make(map[string]int64)
	var dict []string
	trans := make([][]int64, len(cols))
	var dictBytes, entries uint64
	for p, c := range cols {
		trans[p] = make([]int64, len(c.Dict))
		for code, s := range c.Dict {
			trans[p][code] = internID(ids, &dict, s)
			dictBytes += uint64(len(s))
		}
		entries += uint64(len(c.Dict))
	}
	return dict, trans, energy.Counters{
		BytesReadDRAM:    dictBytes,
		BytesWrittenDRAM: entries * 8,
		CacheMisses:      entries / 2,
		Instructions:     entries * 8,
	}
}
