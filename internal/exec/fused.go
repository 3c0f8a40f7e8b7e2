package exec

import (
	"fmt"
	"slices"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Fused operate-on-compressed pipelines (ROADMAP item 5).
//
// The classic filter→aggregate and filter→probe paths materialize a fully
// decoded Relation per morsel — every selected row's bytes move through
// DRAM once to build the intermediate and again to consume it.  The fused
// kernels below go compressed segment → selected rows → partial aggregate
// / probe pairs in ONE pass per morsel, using colstore's SegSpan surface:
//
//	RLE spans    aggregate run-at-a-time in O(runs): a selected run of
//	             length L contributes count += L and sum += L*v without
//	             expanding a single row (vec.CountRange pops the selection
//	             bits of the run's interval word-wise).
//	dict spans   GROUP BY in the code domain: packed codes stream once,
//	             a flat code→slot array replaces the hash probe, and the
//	             per-segment dictionary is touched once per distinct code
//	             — the PR 4 join-code trick extended to aggregation.
//	other spans  (raw, bitpack, delta — including the unsealed delta
//	             tail, which surfaces as an EncRaw span) bulk-decode the
//	             span once and fold row-at-a-time inside the same morsel,
//	             so a fused scan stays a pure function of (snapshot,
//	             predicates) across the main/delta boundary.
//
// Fusion is structural: HashAgg.Run and Join.Run fuse exactly
// when their child is a full-scan *Scan of an eligible shape and consume
// its Filter selection vectors directly; every other child — including a
// scan hidden behind any wrapping Node, which is how E24's control arm
// and the byte-identity tests reach the materializing pipeline — is run
// to a relation first.  The two compose: a HashAgg whose child is a
// Join with a fused probe takes the probe's matches straight
// into partial aggregates (probe→aggregate), so a join under a GROUP BY
// writes no pair list and no joined relation at all.  For HashAgg the
// fused pipelines are two of its three feeders (agg.go): the table they
// fold into, its merge and its output builder are the relation feeder's
// too.
//
// Determinism contract.  The fused output relation is byte-identical to
// the materializing pipeline's: predicates run through the same Filter
// kernel, group keys are fixed-width tuples of int64 parts (an integer
// group value or a dictionary code per GROUP BY column — never
// concatenated bytes, so no separator byte can make two keys collide),
// integer aggregates accumulate in exact int64 arithmetic (associative,
// so the table grid and the filtered-relation grid sum bit-identically),
// and partials merge in morsel order, shard by shard.  Value-needing
// aggregates over Float64 columns are NOT shard-fed: float addition is
// non-associative and the physical morsel grid differs from the filtered
// relation's, so those plans feed from the relation and its pinned
// accumulation order (HashAgg.feeder).  Charged counters are pure
// functions of (snapshot, plan, data) — never of DOP — like every other
// morsel kernel in this package.

// ---------------------------------------------------------------------------
// Fused filter→aggregate: the shard-window feeder
// ---------------------------------------------------------------------------

// shardFeed is the shard-window feeder of an aggregation (agg.go): a
// bound full-scan Scan plus, per shard, the group-key sources and the
// aggregate inputs.  Every morsel filters its rows with the scan's own
// kernel and folds the selection straight off the compressed segments,
// so the filtered relation is never built.
type shardFeed struct {
	a      *HashAgg
	scan   *Binding
	shards []shardFeedCols
	aggShape
	// trackFirst makes every morsel table record the row of each group's
	// first selected appearance (groupTable.first): across more than one
	// shard the merged groups are ordered by its global sequence.
	trackFirst bool
}

// shardFeedCols is one shard's column bindings of a shard-fed aggregation.
type shardFeedCols struct {
	sb *ShardBinding
	// groups yields the key parts, one per GROUP BY column: the column
	// itself, or a string column's code column beside this shard's
	// dictionary in dicts (nil for a BIGINT part).
	groups []*colstore.IntColumn
	dicts  [][]string
	// aggInts[i] is the BIGINT input of aggregate i, nil when the aggregate
	// needs no values (COUNT).
	aggInts []*colstore.IntColumn
}

// shardFeed resolves the shard-window feeder, nil when the aggregation is
// not shard-fed:
//
//	child        a *Scan on the full-scan access path
//	GROUP BY     any number of emitted BIGINT or string columns (a string
//	             is its shard's dictionary code; per-shard dictionaries
//	             meet in the merge's key translation)
//	aggregates   COUNT(*), COUNT(col) of an emitted column, or
//	             SUM/MIN/MAX/AVG of an emitted BIGINT column
//
// A DOUBLE group key or value input is relation-fed (see feeder for why);
// so is anything that does not bind, and the relation feeder reports the
// error.  Everything read here is static, so EXPLAIN, the planner's
// mirror and Run cannot disagree.
func (a *HashAgg) shardFeed() *shardFeed {
	s, ok := a.Child.(*Scan)
	if !ok || s.Access.Kind != FullScan {
		return nil
	}
	b, err := s.Bind()
	if err != nil {
		return nil
	}
	sf := &shardFeed{a: a, scan: b, trackFirst: b.multi() && len(a.GroupBy) > 0}
	sf.groupTypes = make([]colstore.Type, len(a.GroupBy))
	sf.valTypes = make([]colstore.Type, len(a.Aggs))
	groupIdx := make([]int, len(a.GroupBy))
	for p, g := range a.GroupBy {
		ci := b.index(g)
		if ci < 0 || b.tmpl[ci].Type == colstore.Float64 {
			return nil
		}
		groupIdx[p], sf.groupTypes[p] = ci, b.tmpl[ci].Type
	}
	aggIdx := make([]int, len(a.Aggs))
	for i, spec := range a.Aggs {
		aggIdx[i] = -1
		if spec.Func == expr.AggCount {
			if spec.Col != "" && b.index(spec.Col) < 0 {
				return nil // COUNT(col) on a column the scan doesn't emit
			}
			continue
		}
		if aggIdx[i] = b.index(spec.Col); aggIdx[i] < 0 {
			return nil
		}
	}
	for _, sb := range b.Shards {
		fs := shardFeedCols{
			sb:      sb,
			groups:  make([]*colstore.IntColumn, len(groupIdx)),
			dicts:   make([][]string, len(groupIdx)),
			aggInts: make([]*colstore.IntColumn, len(a.Aggs)),
		}
		for p, ci := range groupIdx {
			switch gc := sb.Cols[ci].(type) {
			case *colstore.IntColumn:
				fs.groups[p] = gc
			case *colstore.StringColumn:
				fs.groups[p], fs.dicts[p] = gc.CodeColumn(), gc.Dict()
			}
		}
		for i, ci := range aggIdx {
			if ci < 0 {
				continue
			}
			ic, ok := sb.Cols[ci].(*colstore.IntColumn)
			if !ok {
				return nil // DOUBLE (or string) value inputs are relation-fed
			}
			fs.aggInts[i] = ic
		}
		sf.shards = append(sf.shards, fs)
	}
	return sf
}

// fold implements aggFeeder: one window set per surviving shard, in shard
// order, each the shard's morsel grid.
func (sf *shardFeed) fold(ctx *Ctx, m *aggMerge) error {
	snap := ctx.SnapTS
	return sf.scan.eachShard(ctx, func(i int, sb *ShardBinding) error {
		fs := &sf.shards[i]
		partials, work := runMorsels(ctx, sb.Table.RowsAsOf(snap), func(_, lo, hi int) (*groupTable, energy.Counters) {
			return sf.morsel(fs, snap, lo, hi)
		})
		if ctx.Canceled() {
			return ErrCanceled
		}
		label := sf.a.Label() + " [fused]"
		if sf.scan.multi() {
			label = fmt.Sprintf("%s [fused shard %d]", sf.a.Label(), i)
		}
		var seq *colstore.IntColumn
		if sf.trackFirst {
			seq = sb.Seq
		}
		m.add(ctx, label, partials, work, seq)
		return nil
	})
}

// morsel filters rows [lo, hi) of one shard with the scan's own kernel —
// charging the exact same scan counters — and folds the selected rows
// into a partial table without materializing them.
func (sf *shardFeed) morsel(fs *shardFeedCols, snap int64, lo, hi int) (*groupTable, energy.Counters) {
	sel, w := fs.sb.selectRows(snap, lo, hi)
	selCnt := sel.Count()
	w.TuplesOut += uint64(selCnt) // the scan stage's logical output
	t := sf.newTable(fs.dicts)
	if sf.trackFirst {
		t.firstOn = true
		t.base = int64(lo)
	}
	if selCnt > 0 {
		w.Add(fusedFold(fs, t, sel, lo, hi, selCnt))
		// The aggregate stage's logical rows plus its fold budget; the
		// physical decode/run-stream work is priced inside fusedFold per
		// span.  Strictly below the relation feeder's rangeWork, which pays
		// one hash probe miss per row and re-reads every group/agg value at
		// full width from the materialized intermediate.
		w.Add(energy.Counters{
			TuplesIn:     uint64(selCnt),
			TuplesOut:    uint64(t.groups()),
			Instructions: uint64(selCnt) * uint64(4+2*len(fs.aggInts)),
			CacheMisses:  uint64(selCnt) / 8,
		})
	}
	return t, w
}

// fusedFold accumulates the selected rows of window [lo, hi) into t,
// operating on the compressed segments directly.  Sparse selections
// (under 1/8 of the window) take point reads instead of span streams —
// a fixed density rule, and like the rest of the fused pricing a pure
// function of (snapshot, predicates, grid).
func fusedFold(fs *shardFeedCols, t *groupTable, sel *vec.Bitvec, lo, hi, selCnt int) energy.Counters {
	var w energy.Counters
	nrows := hi - lo
	sparse := selCnt*8 < nrows
	sparseWork := func(n int) energy.Counters {
		return energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n) * 2}
	}

	// readWin materializes a column's window, indexed by local row: the
	// selected rows point-read when sparse, the spans bulk-decoded otherwise.
	readWin := func(c *colstore.IntColumn) []int64 {
		buf := make([]int64, nrows)
		if sparse {
			sel.ForEach(func(i int) { buf[i] = c.Get(lo + i) })
			w.Add(sparseWork(selCnt))
		} else {
			for _, vsp := range c.Spans(lo, hi) {
				w.Add(vsp.Decode(buf[vsp.A-lo : vsp.B-lo]))
			}
		}
		return buf
	}
	// Lazily materialized per-aggregate value windows.  Only aggregates
	// that cannot use a closed form read them.
	vals := make([][]int64, len(fs.aggInts))
	getVals := func(ai int) []int64 {
		if vals[ai] == nil {
			vals[ai] = readWin(fs.aggInts[ai])
		}
		return vals[ai]
	}
	foldRow := func(g int32, i int) {
		t.counts[g]++
		for ai, ic := range fs.aggInts {
			if ic == nil {
				continue
			}
			t.addN(g, ai, getVals(ai)[i], 1)
		}
	}

	// Global aggregation: the count is free of any column touch, and RLE
	// aggregate inputs fold run-at-a-time.
	if len(fs.groups) == 0 {
		g := t.slot(0, nil)
		t.counts[g] += int64(selCnt)
		for ai, ic := range fs.aggInts {
			if ic == nil {
				continue
			}
			if sparse {
				vv := getVals(ai)
				sel.ForEach(func(i int) { t.addN(g, ai, vv[i], 1) })
				continue
			}
			for _, sp := range ic.Spans(lo, hi) {
				if sp.Enc == colstore.EncRLE {
					w.Add(sp.Runs(func(v int64, ra, rb int) {
						if c := sel.CountRange(ra-lo, rb-lo); c > 0 {
							t.addN(g, ai, v, int64(c))
						}
					}))
					continue
				}
				buf := make([]int64, sp.B-sp.A)
				w.Add(sp.Decode(buf))
				la := sp.A - lo
				sel.ForEachRange(la, sp.B-lo, func(i int) {
					t.addN(g, ai, buf[i-la], 1)
				})
			}
		}
		return w
	}

	// Grouped aggregation, sparse: point-read the key parts of the selected
	// rows only.
	rest := make([]int64, len(fs.groups)-1)
	if sparse {
		sel.ForEach(func(i int) {
			for p, c := range fs.groups[1:] {
				rest[p] = c.Get(lo + i)
			}
			g := t.slot(fs.groups[0].Get(lo+i), rest)
			t.noteFirst(g, i)
			foldRow(g, i)
		})
		for range fs.groups {
			w.Add(sparseWork(selCnt))
		}
		return w
	}

	// Grouped aggregation, dense, several key columns: there is no one
	// physical layout to sweep, so every key column's window is decoded
	// like an aggregate input and the rows fold on the k-wide key.
	if len(fs.groups) > 1 {
		wins := make([][]int64, len(fs.groups))
		for p, c := range fs.groups {
			wins[p] = readWin(c)
		}
		sel.ForEach(func(i int) {
			for p, win := range wins[1:] {
				rest[p] = win[i]
			}
			g := t.slot(wins[0][i], rest)
			t.noteFirst(g, i)
			foldRow(g, i)
		})
		return w
	}

	// Grouped aggregation, dense, one key column: sweep it span-wise in its
	// physical layout.
	gcol := fs.groups[0]
	for _, sp := range gcol.Spans(lo, hi) {
		la, lb := sp.A-lo, sp.B-lo
		switch sp.Enc {
		case colstore.EncRLE:
			w.Add(sp.Runs(func(v int64, ra, rb int) {
				c := sel.CountRange(ra-lo, rb-lo)
				if c == 0 {
					return
				}
				g := t.slot(v, nil)
				t.noteFirstRange(g, sel, ra-lo, rb-lo)
				t.counts[g] += int64(c)
				for ai, ic := range fs.aggInts {
					if ic == nil {
						continue
					}
					if ic == gcol {
						// SUM(x) GROUP BY x: run closed form, no expansion.
						t.addN(g, ai, v, int64(c))
						continue
					}
					vv := getVals(ai)
					sel.ForEachRange(ra-lo, rb-lo, func(i int) { t.addN(g, ai, vv[i], 1) })
				}
			}))
		case colstore.EncDict:
			dict := sp.DictVals()
			codes := make([]int64, lb-la)
			w.Add(sp.Codes(codes))
			// Flat code→group memo: one table insert per distinct code per
			// span, one array load per row — no hash probe in the loop.
			code2group := make([]int32, len(dict))
			for i := range code2group {
				code2group[i] = -1
			}
			sel.ForEachRange(la, lb, func(i int) {
				code := codes[i-la]
				g := code2group[code]
				if g < 0 {
					g = t.slot(dict[code], nil)
					code2group[code] = g
					t.noteFirst(g, i)
				}
				foldRow(g, i)
			})
		default: // raw (incl. delta tail), bitpack, delta: bulk decode once
			buf := make([]int64, lb-la)
			w.Add(sp.Decode(buf))
			sel.ForEachRange(la, lb, func(i int) {
				g := t.slot(buf[i-la], nil)
				t.noteFirst(g, i)
				foldRow(g, i)
			})
		}
	}
	return w
}

// ---------------------------------------------------------------------------
// Fused filter→probe
// ---------------------------------------------------------------------------

// shardProbe is the join's fused probe source (join.go): a resolved,
// eligible probe-side Scan.  The probe keys stream straight from the
// compressed key segments, and the intermediate probe Relation is never
// built — matched rows gather from the base table after the probe.
type shardProbe struct {
	sb     *ShardBinding // the scan's one shard
	keyIdx int
	// keyInts yields the probe keys: the key column itself, or a string
	// key's global code column (keys are then global dictionary codes).
	keyInts *colstore.IntColumn
	keyStr  *colstore.StringColumn
}

// shardProbe reports how (and whether) this join can fuse its probe
// feed into the left child: a full-scan *Scan over a single
// shard (probe keys run in one dictionary's code domain) that emits the
// join key as a BIGINT or as dictionary codes.  Everything it reads is
// static, so EXPLAIN and Run cannot disagree.  nil runs the child to a
// relation first, which reports any binding errors itself.
func (j *Join) shardProbe() *shardProbe {
	s, ok := j.Left.(*Scan)
	if !ok || s.Access.Kind != FullScan {
		return nil
	}
	b, err := s.Bind()
	if err != nil || b.multi() {
		return nil
	}
	sp := &shardProbe{sb: b.Shards[0], keyIdx: b.index(j.LeftKey)}
	if sp.keyIdx < 0 {
		return nil
	}
	switch kc := sp.sb.Cols[sp.keyIdx].(type) {
	case *colstore.IntColumn:
		sp.keyInts = kc
	case *colstore.StringColumn:
		if !sp.sb.asCode[sp.keyIdx] {
			return nil // raw string keys: the scan materializes, the join interns
		}
		sp.keyStr, sp.keyInts = kc, kc.CodeColumn()
	default:
		return nil
	}
	return sp
}

func (sp *shardProbe) keyDomain() (colstore.Type, []string, energy.Counters) {
	if sp.keyStr != nil {
		return colstore.String, sp.keyStr.Dict(), energy.Counters{}
	}
	return colstore.Int64, nil, energy.Counters{}
}
func (sp *shardProbe) rows(snap int64) int { return sp.sb.Table.RowsAsOf(snap) }
func (sp *shardProbe) fused() bool         { return true }

// window returns *buf resized to n rows (n never exceeds MorselRows).
func window(buf *[]int64, n int) []int64 {
	if *buf == nil {
		*buf = make([]int64, MorselRows)
	}
	return (*buf)[:n]
}

// streamWindow reads column c over the window [lo, hi) into out.  dense
// bulk-decodes the whole window once (DecodeRange streams each compressed
// segment slice a single time); otherwise only the selected rows are
// point-read, at gatherCol's sparse price (dictionary codes skip the
// deref and cost less).  A pure function of (column, window, selection).
func streamWindow(c *colstore.IntColumn, codes bool, rows []int32, lo, hi int, dense bool, out []int64) energy.Counters {
	if dense {
		return c.DecodeRange(lo, hi, out)
	}
	for _, r := range rows {
		out[r] = c.Get(lo + int(r))
	}
	n := uint64(len(rows))
	if codes {
		return energy.Counters{CacheMisses: n / 8, Instructions: n}
	}
	return energy.Counters{CacheMisses: n / 4, Instructions: n * 2}
}

// window filters rows [lo, hi) with the scan's predicate sequence and
// streams the selected probe keys straight from the key segments — the
// probe side is never materialized.
func (sp *shardProbe) window(snap int64, lo, hi int, sc *probeScratch, folding bool) ([]int64, []int32, int, bool, energy.Counters) {
	nrows := hi - lo
	sel, w := sp.sb.selectRows(snap, lo, hi)
	selCnt := sel.Count()
	w.TuplesOut += uint64(selCnt) // the scan stage's logical output
	if selCnt == 0 {
		return nil, nil, 0, false, w
	}
	var rows []int32 // nil: the whole window is selected
	if selCnt < nrows {
		sc.rows = sel.AppendIndices(sc.rows[:0])
		rows = sc.rows
	}
	// Key stream.  The pair sink decodes in bulk only a fully selected
	// window and point-reads anything narrower — exactly what the
	// materializing scan charges to extract the same key column, so the
	// cross-path energy gap measures eliminated materialization, not pricing
	// skew.  The aggregate sink has no materialized twin to mirror and
	// follows the fused fold's density rule.  Either way a pure function of
	// (snapshot, predicates, grid), and no 8-byte key re-stream follows: the
	// decode pays the physical bytes — the saving the fused feed exists for.
	dense := selCnt == nrows
	if folding {
		dense = selCnt*8 >= nrows
	}
	keys := window(&sc.keys, nrows)
	w.Add(streamWindow(sp.keyInts, sp.keyStr != nil, rows, lo, hi, dense, keys))
	return keys, rows, selCnt, dense, w
}

// gather materializes the probe side of the join output: the key column
// verbatim from the probe-stage key stream, the other columns straight
// from the base table at the matched global rows.
func (sp *shardProbe) gather(keys []int64, rows []int32) (*Relation, energy.Counters) {
	out := &Relation{N: len(rows), Cols: make([]Col, len(sp.sb.Cols))}
	var w energy.Counters
	for ci, col := range sp.sb.Cols {
		if ci == sp.keyIdx {
			// The probe stage decoded the key for every match and emitted
			// it with the row pair, so the output key column is those
			// values verbatim — no second touch of the key segments (the
			// re-read the fused feed exists to eliminate).  Movement into
			// the output block is priced once, by the join's gather.
			oc := sp.sb.tmpl[ci] // name, type, and a string key's dictionary
			// Non-nil at zero matches, like every gathered column.
			oc.I = append(make([]int64, 0, len(keys)), keys...)
			out.Cols[ci] = oc
			continue
		}
		oc, gw := fusedGatherCol(col, sp.sb.tmpl[ci].Name, sp.sb.asCode[ci], rows)
		out.Cols[ci] = oc
		w.Add(gw)
	}
	return out, w
}

// fusedGatherCol materializes the matched global rows of one stored
// column, pricing the physical reads like gatherCol does for scans.
func fusedGatherCol(col colstore.Column, name string, asCode bool, rows []int32) (Col, energy.Counters) {
	oc := Col{Name: name, Type: col.Type()}
	n := len(rows)
	sparse := energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n) * 2}
	switch c := col.(type) {
	case *colstore.IntColumn:
		oc.I = make([]int64, n)
		return oc, gatherStoredInts(c, rows, oc.I)
	case *colstore.FloatColumn:
		oc.F = make([]float64, n)
		for i, r := range rows {
			oc.F[i] = c.Get(int(r))
		}
		return oc, sparse
	case *colstore.StringColumn:
		codes := c.CodeColumn()
		if asCode {
			oc.Dict = c.Dict()
			oc.I = make([]int64, n)
			return oc, gatherStoredInts(codes, rows, oc.I)
		}
		oc.S = make([]string, n)
		buf := make([]int64, n)
		w := gatherStoredInts(codes, rows, buf)
		dict := c.Dict()
		for i, code := range buf {
			oc.S[i] = dict[code]
		}
		w.Add(energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n)})
		return oc, w
	}
	return oc, energy.Counters{}
}

// gatherStoredInts reads the given global rows (ascending, duplicates
// allowed) from a stored int column, priced as point reads — gatherCol's
// sparse convention, because a join's match list is never a contiguous
// window.  Charging what the classic scan charges for the same lookups
// keeps the cross-path energy gap a measure of eliminated
// materialization, not pricing skew.  Price is a pure function of
// (column, rows).
func gatherStoredInts(c *colstore.IntColumn, rows []int32, out []int64) energy.Counters {
	for i, r := range rows {
		out[i] = c.Get(int(r))
	}
	n := uint64(len(rows))
	return energy.Counters{CacheMisses: n / 4, Instructions: n * 2}
}

// ---------------------------------------------------------------------------
// Fused probe→aggregate: the probe-match feeder
// ---------------------------------------------------------------------------

// probeFeed is the probe-match feeder of an aggregation (agg.go): the
// child join's shard probe source plus, for the group key and every
// aggregate, which side's column it reads.
type probeFeed struct {
	a     *HashAgg
	join  *Join
	probe *shardProbe
	aggShape
	group probeAggInput
	aggs  []probeAggInput
	// wins are the distinct probe-side columns the fold reads, each
	// streamed into one window per morsel.
	wins []*colstore.IntColumn
	// groupDict decodes a probe-side string group's dictionary codes.
	groupDict []string
}

// probeAggInput locates one fold input: a probe-side window (index into
// probeFeed.wins) or a build-relation column, -1 where absent.  Neither
// set means no value is read (global group, COUNT).
type probeAggInput struct{ win, build int }

// probeFeed resolves the probe-match feeder, nil when the child join's
// matches cannot fold straight into partial aggregates:
//
//	child        a *Join (under the planner's Materialize or not) whose
//	             probe side fuses (shardProbe) and whose build side is a
//	             *Scan emitting a key of the probe key's type
//	GROUP BY     none, or one column of either side: BIGINT, or a string
//	             (a probe-side dictionary code, a build-side string
//	             resolved to one int64 id per build row)
//	aggregates   COUNT(*), COUNT(col) of a join output column, or
//	             SUM/MIN/MAX/AVG of a BIGINT column of either side
//
// Columns resolve by name against the join's output schema, exactly as
// the relation feeder would find them in the joined relation.  Every
// input is static — no row count, no snapshot — so EXPLAIN and Run cannot
// disagree.  Anything else returns nil and the join emits pairs for the
// relation feeder.
func (a *HashAgg) probeFeed() *probeFeed {
	child := a.Child
	if m, ok := child.(*Materialize); ok {
		child = m.Child
	}
	j, ok := child.(*Join)
	if !ok || len(a.GroupBy) > 1 {
		return nil
	}
	fp := j.shardProbe()
	rs, ok := j.Right.(*Scan)
	if fp == nil || !ok {
		return nil
	}
	rb, err := rs.Bind()
	if err != nil {
		return nil
	}
	rki := rb.index(j.RightKey)
	if keyType, _, _ := fp.keyDomain(); rki < 0 || rb.tmpl[rki].Type != keyType {
		return nil // the pair path reports the missing or mismatched key
	}

	// The join's output schema: probe columns, then the build columns
	// minus the right key, renamed exactly as the pair path would.
	nl := len(fp.sb.tmpl)
	var buildOf []int // join output column nl+i ← build relation column buildOf[i]
	for i := range rb.tmpl {
		if rb.tmpl[i].Name != j.RightKey {
			buildOf = append(buildOf, i)
		}
	}
	schema := mergeJoinColumns(&Relation{Cols: fp.sb.tmpl}, &Relation{Cols: rb.tmpl}, j.RightKey)
	pf := &probeFeed{a: a, join: j, probe: fp, group: probeAggInput{-1, -1}}
	find := func(name string) int {
		return slices.IndexFunc(schema.Cols, func(c Col) bool { return c.Name == name })
	}
	// resolve binds join output column o as a fold input; strings qualify
	// as group keys only.
	resolve := func(o int, group bool) (probeAggInput, bool) {
		in := probeAggInput{-1, -1}
		if o < 0 {
			return in, false
		}
		if o >= nl {
			in.build = buildOf[o-nl]
			t := rb.tmpl[in.build].Type
			return in, t == colstore.Int64 || (group && t == colstore.String)
		}
		var ints *colstore.IntColumn
		switch c := fp.sb.Cols[o].(type) {
		case *colstore.IntColumn:
			ints = c
		case *colstore.StringColumn:
			if !group {
				return in, false
			}
			ints, pf.groupDict = c.CodeColumn(), c.Dict()
		default:
			return in, false // DOUBLE inputs are relation-fed
		}
		if in.win = slices.Index(pf.wins, ints); in.win < 0 {
			in.win = len(pf.wins)
			pf.wins = append(pf.wins, ints)
		}
		return in, true
	}
	if len(a.GroupBy) == 1 {
		o := find(a.GroupBy[0])
		if pf.group, ok = resolve(o, true); !ok {
			return nil
		}
		pf.groupTypes = []colstore.Type{schema.Cols[o].Type}
	}
	pf.aggs = make([]probeAggInput, len(a.Aggs))
	pf.valTypes = make([]colstore.Type, len(a.Aggs))
	for i, spec := range a.Aggs {
		pf.aggs[i] = probeAggInput{-1, -1}
		if spec.Func == expr.AggCount {
			if spec.Col != "" && find(spec.Col) < 0 {
				return nil // COUNT(col) on a column the join doesn't emit
			}
			continue
		}
		if pf.aggs[i], ok = resolve(find(spec.Col), false); !ok {
			return nil
		}
	}
	return pf
}

// probeFold is the aggregate sink of one probe morsel: every match
// (window-local probe row i, build row r) folds into the partial table t.
// The build-side columns are shared by all morsels; the windows and the
// slot memo are this morsel's, bound from worker scratch.
type probeFold struct {
	pf         *probeFeed
	t          *groupTable
	dicts      [][]string // every partial's key dictionaries: a string group's
	buildGroup []int64    // per build row: its group key (build-side groups)
	buildVals  [][]int64  // per aggregate: its build-side input column
	groupWin   []int64    // probe-side group keys of the window
	aggWin     [][]int64  // per aggregate: its probe-side input window
	// idSlot memoizes each of nids dense group keys' index in t plus one
	// (0 = not yet seen this morsel), so string groups (keys are dictionary
	// ids) and the global group (key 0) cost an array load per match, not a
	// hash.  BIGINT groups have arbitrary keys: nids 0, no memo.
	nids   int
	idSlot []int32
}

// bind streams the fold's probe-side windows for rows [lo, hi), following
// the key stream's density verdict, and resets the slot memo.
func (f *probeFold) bind(sc *probeScratch, rows []int32, lo, hi int, dense bool) energy.Counters {
	var w energy.Counters
	pf := f.pf
	for len(sc.wins) < len(pf.wins) {
		sc.wins = append(sc.wins, nil)
	}
	for k, c := range pf.wins {
		w.Add(streamWindow(c, false, rows, lo, hi, dense, window(&sc.wins[k], hi-lo)))
	}
	if pf.group.win >= 0 {
		f.groupWin = sc.wins[pf.group.win]
	}
	sc.aggWin = sc.aggWin[:0]
	for _, in := range pf.aggs {
		var win []int64
		if in.win >= 0 {
			win = sc.wins[in.win]
		}
		sc.aggWin = append(sc.aggWin, win)
	}
	f.aggWin = sc.aggWin
	if f.nids > 0 {
		if cap(sc.slots) < f.nids {
			sc.slots = make([]int32, f.nids)
		}
		f.idSlot = sc.slots[:f.nids]
		clear(f.idSlot)
	}
	return w
}

// add folds one match.  Matches arrive in probe-row order with build rows
// ascending within duplicates — the pair path's output order — so the
// table's first-seen group order is the materialized join's.
func (f *probeFold) add(i int, r int32) {
	t := f.t
	var key int64
	switch {
	case f.groupWin != nil:
		key = f.groupWin[i]
	case f.buildGroup != nil:
		key = f.buildGroup[r]
	}
	var g int32
	if f.idSlot == nil {
		g = t.slot(key, nil)
	} else if g = f.idSlot[key] - 1; g < 0 {
		g = t.slot(key, nil)
		f.idSlot[key] = g + 1
	}
	t.counts[g]++
	for ai, win := range f.aggWin {
		if win != nil {
			t.addN(g, ai, win[i], 1)
		} else if bv := f.buildVals[ai]; bv != nil {
			t.addN(g, ai, bv[r], 1)
		}
	}
}

// work prices folding matches matches: the aggregate stage's logical
// rows and shardFeed.morsel's fold budget, plus one cache-resident touch
// per build-side input — the build relation is the small side.  No pair
// was written and nothing is re-read from an intermediate.
func (f *probeFold) work(matches uint64) energy.Counters {
	touches := uint64(1)
	if f.buildGroup != nil {
		touches++
	}
	for _, bv := range f.buildVals {
		if bv != nil {
			touches++
		}
	}
	return energy.Counters{
		TuplesIn:     matches,
		TuplesOut:    uint64(f.t.groups()),
		Instructions: matches * uint64(4+2*len(f.pf.aggs)),
		CacheMisses:  matches * touches / 8,
	}
}

// buildGroupKeys returns one int64 group key per build row, plus the
// dictionary that decodes it for string groups: integers pass through,
// coded strings are their codes, plain strings intern in build-row order.
func buildGroupKeys(c *Col) (keys []int64, dict []string, w energy.Counters) {
	if c.Type == colstore.Int64 || c.Dict != nil {
		return c.I, c.Dict, w
	}
	return internStrings(c.S)
}

// fold implements aggFeeder: the join with the fold sink.  The build side
// runs and is hashed as ever (Join.build), then each probe morsel folds
// its matches into a partial table — one window set, the probe source's
// morsel grid; no pair list, no gathered join relation.
func (pf *probeFeed) fold(ctx *Ctx, m *aggMerge) error {
	jr, err := pf.join.build(ctx, pf.probe)
	if err != nil {
		return err
	}
	f := &probeFold{pf: pf, buildVals: make([][]int64, len(pf.aggs))}
	switch {
	case pf.group.build >= 0:
		var dict []string
		var gw energy.Counters
		f.buildGroup, dict, gw = buildGroupKeys(&jr.right.Cols[pf.group.build])
		if !gw.IsZero() {
			ctx.Charge(pf.a.Label()+" [group ids]", len(dict), gw)
		}
		f.dicts, f.nids = [][]string{dict}, len(dict)
	case pf.group.win >= 0:
		f.dicts, f.nids = [][]string{pf.groupDict}, len(pf.groupDict)
	default:
		f.nids = 1 // the global group's one key, 0
	}
	for ai, in := range pf.aggs {
		if in.build >= 0 {
			f.buildVals[ai] = jr.right.Cols[in.build].I
		}
	}
	outs, qw, err := jr.probe(ctx, f)
	if err != nil {
		return err
	}
	partials := make([]*groupTable, len(outs))
	for i := range outs {
		partials[i] = outs[i].agg
	}
	m.add(ctx, pf.a.Label()+" [fused probe→agg]", partials, qw, nil)
	return nil
}

// ---------------------------------------------------------------------------
// Planner mirrors
// ---------------------------------------------------------------------------

// fusion implements fuser: which of the two fused feeders, if any.
func (a *HashAgg) fusion() string {
	switch {
	case a.shardFeed() != nil:
		return "fused"
	case a.probeFeed() != nil:
		return "fused probe→agg"
	}
	return ""
}

// fusion implements fuser: whether the probe feed fuses.
func (j *Join) fusion() string {
	if j.shardProbe() != nil {
		return "fused"
	}
	return ""
}

// FusedAggEligible reports whether HashAgg{Child: scan, GroupBy, Aggs} is
// shard-fed — the planner's pricing mirror of the feeder selection.
func FusedAggEligible(scan *Scan, groupBy []string, aggs []expr.AggSpec) bool {
	a := &HashAgg{Child: scan, GroupBy: groupBy, Aggs: aggs}
	return a.shardFeed() != nil
}

// FusedProbeEligible reports whether a Join probing scan on leftKey
// fuses its probe feed — the planner's pricing mirror of shardProbe.
func FusedProbeEligible(scan *Scan, leftKey string) bool {
	j := &Join{Left: scan, LeftKey: leftKey}
	return j.shardProbe() != nil
}

// FusedProbeAggEligible reports whether HashAgg{Child: child, GroupBy,
// Aggs} folds its child join's matches straight into partial aggregates
// — the planner's pricing mirror of probeFeed.
func FusedProbeAggEligible(child Node, groupBy []string, aggs []expr.AggSpec) bool {
	a := &HashAgg{Child: child, GroupBy: groupBy, Aggs: aggs}
	return a.probeFeed() != nil
}
