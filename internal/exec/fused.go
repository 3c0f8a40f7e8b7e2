package exec

import (
	"math"
	"slices"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Fused operate-on-compressed pipelines.
//
// The classic filter→aggregate and filter→probe paths materialize a
// Relation per morsel — every selected row's values (a string's 8-byte
// code) move through DRAM once to build the intermediate and again to
// consume it.  The fused kernels below go compressed segment → selected
// rows → partial aggregate / probe pairs in ONE pass per morsel, using
// colstore's SegSpan surface:
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
//	             tail, which surfaces as a compress.Raw span) bulk-decode the
//	             span once inside the same morsel, so a fused scan stays a
//	             pure function of (snapshot, predicates) across the
//	             main/delta boundary.
//
// Every selected row resolves to its group id first; the morsel's ids
// then fold column at a time (groupTable.fold).
//
// Fusion is structural: HashAgg.Run and Join.Run fuse exactly
// when their child is a *Scan of an eligible shape and consume
// its Filter selection vectors directly; every other child — including a
// scan hidden behind any wrapping Node, which is how E24's control arm
// and the byte-identity tests reach the materializing pipeline — is run
// to a relation first.  The two compose: a HashAgg whose child is a
// Join with a fused probe takes the probe's matches straight
// into partial aggregates (probe→aggregate), so a join under a GROUP BY
// writes no pair list and no joined relation at all.  For HashAgg the
// fused pipelines are two of its three feeders (agg.go): the table they
// fold into, its merge and its output builder are the relation feeder's
// too.  A string is its codes on every path, so a VARCHAR key fuses on
// any storage state — sealed or live, ordered dictionary or not.
//
// Determinism contract.  The fused output relation is identical to the
// materializing pipeline's (strings compared decoded, Relation.Equal):
// predicates run through the same Filter kernel, group keys are
// fixed-width tuples of int64 parts (an integer group value or a
// dictionary code per GROUP BY column — never concatenated bytes, so no
// separator byte can make two keys collide), every accumulator is
// order-free (exact int64 ring arithmetic for BIGINT, the binned num.FloatSum
// for DOUBLE, int64 keys for MIN/MAX), so the table grid and the
// filtered-relation grid give the same bits, and partials merge in morsel
// order, which fixes the group order.  Charged counters are pure
// functions of (snapshot, plan, data) — never of DOP — like every other
// morsel kernel in this package.

// ---------------------------------------------------------------------------
// Fused filter→aggregate: the scan-window feeder
// ---------------------------------------------------------------------------

// scanFeed is the scan-window feeder of an aggregation (agg.go): a
// bound Scan plus the group-key sources and the aggregate inputs.  Every
// morsel filters its rows with the scan's own kernel and folds the
// selection straight off the stored columns, so the filtered relation is
// never built.
type scanFeed struct {
	a    *HashAgg
	scan *Binding
	// groups yields the key parts, one per GROUP BY column: the column
	// itself, or a string column's code column beside the table's
	// dictionary in dicts (nil for a BIGINT part).
	groups []*colstore.IntColumn
	dicts  [][]string
	// vals[i] is the BIGINT or DOUBLE input of aggregate i, nil when the
	// aggregate needs no values (COUNT).
	vals []colstore.Column
	// synCol is the segment synopsis a morsel may fold from: the one
	// GROUP BY column's schema index, -1 for the global synopsis, or
	// noSynopsis under a wider GROUP BY; synVals[i] is aggregate i's input
	// column's schema index.  eqCol is the schema index of the column of
	// the scan's one predicate when it is an equality on an integer or
	// string column and the GROUP BY is none or that column (-1
	// otherwise), and eqVal its value — a string's code, -1 when the
	// dictionary does not hold it.
	synCol, eqCol int
	synVals       []int
	eqVal         int64
	aggShape
}

// noSynopsis marks an aggregation no segment synopsis answers.
const noSynopsis = -2

// scanFeed resolves the scan-window feeder, nil when the aggregation is
// not scan-fed:
//
//	child        a *Scan
//	GROUP BY     any number of emitted BIGINT or string columns (a string
//	             is its column's dictionary code)
//	aggregates   COUNT(*), COUNT(col) of an emitted column, or
//	             SUM/MIN/MAX/AVG of an emitted BIGINT or DOUBLE column
//
// A DOUBLE group key is relation-fed — key parts are read from integer
// columns — and so is anything that does not bind, for the relation
// feeder to report the error.  Everything read here is static, so
// EXPLAIN, the planner's mirror and Run cannot disagree.
func (a *HashAgg) scanFeed() *scanFeed {
	s, ok := a.Child.(*Scan)
	if !ok {
		return nil
	}
	b, err := s.Bind()
	if err != nil {
		return nil
	}
	sf := &scanFeed{
		a: a, scan: b,
		groups: make([]*colstore.IntColumn, len(a.GroupBy)),
		dicts:  make([][]string, len(a.GroupBy)),
		vals:   make([]colstore.Column, len(a.Aggs)),
	}
	sf.groupTypes = make([]colstore.Type, len(a.GroupBy))
	sf.valTypes = make([]colstore.Type, len(a.Aggs))
	schema := b.Table.Schema()
	sf.synCol, sf.synVals = noSynopsis, make([]int, len(a.Aggs))
	switch len(a.GroupBy) {
	case 0:
		sf.synCol = -1
	case 1:
		sf.synCol = schema.ColIndex(a.GroupBy[0])
	}
	for i, spec := range a.Aggs {
		sf.synVals[i] = schema.ColIndex(spec.Col)
	}
	for p, g := range a.GroupBy {
		ci := b.index(g)
		if ci < 0 || b.tmpl[ci].Type == colstore.Float64 {
			return nil
		}
		sf.groupTypes[p] = b.tmpl[ci].Type
		switch gc := b.Cols[ci].(type) {
		case *colstore.IntColumn:
			sf.groups[p] = gc
			if lo, hi, ok := gc.MinMax(); ok && len(a.GroupBy) == 1 {
				sf.denseKey(lo, hi)
			}
		case *colstore.StringColumn:
			sf.groups[p], sf.dicts[p] = gc.CodeColumn(), b.tmpl[ci].Dict
			if len(a.GroupBy) == 1 {
				sf.denseKey(0, int64(len(sf.dicts[p]))-1)
			}
		}
	}
	for i, spec := range a.Aggs {
		switch ci := b.index(spec.Col); {
		case spec.Func == expr.AggCount && (spec.Col == "" || ci >= 0):
			// COUNT reads no values
		case ci < 0 || b.tmpl[ci].Type == colstore.String:
			return nil // not emitted, or a string input the relation feeder reports
		default:
			sf.valTypes[i], sf.vals[i] = b.tmpl[ci].Type, b.Cols[ci]
		}
	}
	sf.setKinds(a.Aggs)
	sf.eqCol = -1
	if len(b.preds) == 1 && b.preds[0].Op == vec.EQ {
		p, ci := b.preds[0], schema.ColIndex(b.preds[0].Col)
		switch c := b.predCols[0].(type) {
		case *colstore.IntColumn:
			sf.eqVal = p.Val.I
		case *colstore.StringColumn:
			sf.eqVal = c.Code(p.Val.S)
		default:
			ci = -1
		}
		if sf.synCol == -1 || sf.synCol == ci {
			sf.eqCol = ci
		}
	}
	return sf
}

// fold implements aggFeeder: the table's morsel grid.
func (sf *scanFeed) fold(ctx *Ctx) ([]*groupTable, energy.Counters, string, error) {
	snap := ctx.SnapTS
	partials, work := runMorsels(ctx, sf.scan.Table.RowsAsOf(snap), func(_, lo, hi int) (*groupTable, energy.Counters) {
		return sf.morsel(snap, lo, hi)
	})
	if ctx.Canceled() {
		return nil, work, "", ErrCanceled
	}
	return partials, work, sf.a.Label() + " [fused]", nil
}

// morsel folds rows [lo, hi) into a partial table: from the window's
// segment synopsis when window says so, otherwise by filtering the rows
// with the scan's own kernel — charging the exact same scan counters —
// and folding the selection off the stored columns without
// materializing it.
func (sf *scanFeed) morsel(snap int64, lo, hi int) (*groupTable, energy.Counters) {
	if syn, from, to, w := sf.window(snap, lo, hi); syn != nil {
		t := sf.newTable(sf.dicts)
		t.foldSynopsis(syn, sf.synVals, from, to)
		return t, w
	}
	sc := scratchPool.Get().(*morselScratch)
	defer scratchPool.Put(sc)
	sel, w := sf.scan.selectRows(snap, lo, hi, sc)
	selCnt := sel.Count()
	w.TuplesOut += uint64(selCnt) // the scan stage's logical output
	t := sf.newTable(sf.dicts)
	if selCnt > 0 {
		f := scanFold{fs: sf, t: t, sc: sc, sel: sel, lo: lo, hi: hi, dense: selCnt*8 >= hi-lo}
		sc.rows = sel.AppendIndices(sc.rows[:0])
		sc.gids = sized(sc.gids, selCnt)
		switch {
		case len(sf.groups) > 1 || !f.dense:
			f.tuples()
		case len(sf.groups) == 0:
			f.global()
		default:
			f.sweep()
		}
		// The physical reads are priced inside the fold.
		w.Add(f.w)
		w.Add(foldWork(selCnt, t.groups(), len(sf.vals)))
	}
	return t, w
}

// foldWork prices the aggregate stage of a streamed window: its logical
// rows and its fold budget for m selected rows into groups groups.
// Strictly below the relation feeder's rangeWork, which pays one hash
// probe miss per row and re-reads every group/agg value at full width
// from the materialized intermediate.
func foldWork(m, groups, aggs int) energy.Counters {
	return energy.Counters{
		TuplesIn:     uint64(m),
		TuplesOut:    uint64(groups),
		Instructions: uint64(m) * uint64(4+2*aggs),
		CacheMisses:  uint64(m) / 8,
	}
}

// window is the scan feeder's one per-window decision, made before a row
// is read: the synopsis and its groups [from, to) that morsel [lo, hi)
// folds, with exactly the counters the fold books, or nil when the window
// streams its rows.  The window must be exactly one sealed segment with
// no row tombstoned at the snapshot (a row a merge kept for an older
// snapshot fails the first test), and either
//
//	its one predicate is col = v (GROUP BY none or col) and the segment's
//	synopsis by col holds v, or is complete and lacks it, so that no row
//	matches (no group);
//	or every predicate's zone maps prove every row selected, and the GROUP
//	BY column (the global synopsis with none) keeps a complete synopsis.
//
// morsel runs the decision and FusedAggWork prices it.
func (sf *scanFeed) window(snap int64, lo, hi int) (syn *colstore.Synopsis, from, to int, w energy.Counters) {
	tab, n := sf.scan.Table, uint64(hi-lo)
	if sf.eqCol >= 0 {
		if syn = tab.Synopsis(lo, hi, sf.eqCol); syn != nil && !tab.Hides(snap, lo, hi) {
			if g := slices.Index(syn.Keys, sf.eqVal); g >= 0 || !syn.Partial {
				// The logical rows a streamed fold of the window books —
				// the predicate's window in, its matches out of the kernel
				// and the scan stage and into the aggregate stage, and the
				// group — but no row read.
				w = energy.Counters{TuplesIn: n}
				if g >= 0 {
					m := uint64(syn.Counts[g])
					from, to = g, g+1
					w.Add(energy.Counters{TuplesIn: m, TuplesOut: 2*m + 1})
				}
				w.Add(SynopsisWork(1, len(sf.vals)))
				return syn, from, to, w
			}
		}
	}
	if sf.synCol == noSynopsis {
		return nil, 0, 0, w
	}
	syn = tab.Synopsis(lo, hi, sf.synCol)
	if syn == nil || syn.Partial || tab.Hides(snap, lo, hi) {
		return nil, 0, 0, w
	}
	if _, w = sf.scan.selectRows(snap, lo, hi, nil); w.TuplesOut != n*uint64(len(sf.scan.preds)) {
		return nil, 0, 0, energy.Counters{}
	}
	// The same logical rows as a fold of the window (the scan stage's
	// output, the aggregate stage's input and groups), but no row read.
	w.Add(energy.Counters{TuplesIn: n, TuplesOut: n + uint64(sf.groupsOf(len(syn.Keys)))})
	w.Add(SynopsisWork(len(syn.Keys), len(sf.vals)))
	return syn, 0, len(syn.Keys), w
}

// groupsOf is the number of groups folding k synopsis groups gives: one
// each, or the one global group when there is no GROUP BY.
func (sf *scanFeed) groupsOf(k int) int {
	if len(sf.groups) == 0 {
		return min(1, k)
	}
	return k
}

// SynopsisWork prices folding a segment synopsis of groups groups into a
// partial table for aggs aggregates: per synopsis group a slot, its key
// and count, and one accumulator per aggregate read and folded — the one
// formula of the synopsis feeder, a function of the synopsis alone and
// never of the segment's rows.
func SynopsisWork(groups, aggs int) energy.Counters {
	g := uint64(groups)
	return energy.Counters{
		Instructions:  g * uint64(10+4*aggs),
		CacheMisses:   g,
		BytesReadDRAM: g * 8 * uint64(2+aggs),
	}
}

// scanFold is one morsel's fold of its selected rows (scratch rows) into
// a partial table, reading the stored columns into the worker's scratch
// windows: a key part's window at scratch window p, a BIGINT input's at
// len(groups)+i.  dense streams whole windows; otherwise — under 1/8 of
// the window selected — only the selected rows are point-read.  A fixed
// density rule, and like the rest of the fused pricing a pure function of
// (snapshot, predicates, grid).  The fold is one of three sweeps: a
// k-wide key or a sparse window (the global group's included), read
// column by column; the global group's dense window; or one key column's
// dense window, span-wise.  The first and the last resolve every
// selected row to its group id and then fold once.
type scanFold struct {
	fs     *scanFeed
	t      *groupTable
	sc     *morselScratch
	sel    *vec.Bitvec
	lo, hi int
	dense  bool
	w      energy.Counters
}

// read streams column c into scratch window k (streamWindow).
func (f *scanFold) read(k int, c *colstore.IntColumn) []int64 {
	win := f.sc.win(k, f.hi-f.lo)
	f.w.Add(streamWindow(c, f.sc.rows, f.lo, f.hi, f.dense, win))
	return win
}

// floats returns the window of DOUBLE column c — the stored values in
// place, nothing decoded — priced as gatherCol prices the same read: the
// whole window streamed when dense, the selected rows point-read
// otherwise.
func (f *scanFold) floats(c *colstore.FloatColumn) []float64 {
	n := len(f.sc.rows)
	if f.dense {
		n = f.hi - f.lo
	}
	f.w.Add(floatRead(n, f.dense))
	return c.Values()[f.lo:f.hi]
}

// bindValues reads every aggregate input into the fold's inputs over the
// selected rows, except a BIGINT input that is skip.
func (f *scanFold) bindValues(skip *colstore.IntColumn) {
	sc, k := f.sc, len(f.fs.groups)
	sc.ins = sized(sc.ins, len(f.fs.vals))
	for ai, c := range f.fs.vals {
		in := &sc.ins[ai]
		switch c := c.(type) {
		case *colstore.FloatColumn:
			in.floats = f.floats(c)
		case *colstore.IntColumn:
			if c != skip {
				in.ints = f.read(k+ai, c)
			}
		}
		in.at = sc.rows
	}
}

// global folds a dense window into the one global group.  The count
// touches no column; every input folds over the selection with all group
// ids 0 — a BIGINT one span-wise: run-at-a-time over RLE runs, decoded
// once otherwise.
func (f *scanFold) global() {
	t, sc, rows, lo := f.t, f.sc, f.sc.rows, f.lo
	t.slot(0, nil)
	t.counts[0] += int64(len(rows))
	for ai, c := range f.fs.vals {
		switch c := c.(type) {
		case *colstore.FloatColumn:
			t.foldAgg(ai, sc.gids, foldIn{floats: f.floats(c), at: rows})
		case *colstore.IntColumn:
			win := sc.win(ai, f.hi-lo)
			sc.spans = c.AppendSpans(sc.spans[:0], lo, f.hi)
			for _, sp := range sc.spans {
				if sp.Enc == compress.RLE {
					f.w.Add(sp.Runs(func(v int64, ra, rb int) {
						if c := f.sel.CountRange(ra-lo, rb-lo); c > 0 {
							t.addN(0, ai, v, int64(c))
						}
					}))
					continue
				}
				la, lb := sp.A-lo, sp.B-lo
				f.w.Add(sp.Decode(win[la:lb]))
				at := rowsIn(rows, la, lb)
				t.foldAgg(ai, sc.gids[:len(at)], foldIn{ints: win, at: at})
			}
		}
	}
}

// tuples resolves the selected rows' groups on their k-wide keys, every
// key part read like a value input: the fold of a sparse window, and of a
// dense one keyed by several columns, which have no one layout to sweep.
// With no key (k = 0) every row is the global group's.
func (f *scanFold) tuples() {
	t, sc, k := f.t, f.sc, len(f.fs.groups)
	for p, c := range f.fs.groups {
		f.read(p, c)
	}
	f.bindValues(nil)
	t.resolve(sc.wins[:k], sc.rows, sc.gids)
	t.fold(sc.gids, sc.ins)
}

// sweep resolves a dense window's groups on its one key column, span-wise
// in the column's physical layout: RLE spans run-at-a-time, dictionary
// spans in the code domain through a code→group memo (one table insert
// per distinct code per span, an array load per row), anything else —
// raw (incl. the delta tail), bitpack, delta — decoded once.
func (f *scanFold) sweep() {
	t, sc, lo := f.t, f.sc, f.lo
	gcol := f.fs.groups[0]
	sc.spans = gcol.AppendSpans(sc.spans[:0], lo, f.hi)
	// SUM(x) GROUP BY x folds x's runs closed-form: x's own window is read
	// only if a selected row lies outside a run.
	skip := gcol
	for _, sp := range sc.spans {
		if sp.Enc != compress.RLE && f.sel.CountRange(sp.A-lo, sp.B-lo) > 0 {
			skip = nil
		}
	}
	f.bindValues(skip)
	keys, gids := sc.win(0, f.hi-lo), sc.gids
	for _, sp := range sc.spans {
		la, lb := sp.A-lo, sp.B-lo
		rows := rowsIn(sc.rows, la, lb)
		out := gids[:len(rows)]
		gids = gids[len(rows):]
		switch sp.Enc {
		case compress.RLE:
			f.w.Add(sp.Runs(func(v int64, ra, rb int) {
				n := f.sel.CountRange(ra-lo, rb-lo)
				f.run(v, rows[:n], out[:n])
				rows, out = rows[n:], out[n:]
			}))
		case compress.Dict:
			dict := sp.DictVals()
			f.w.Add(sp.Codes(keys[la:lb]))
			sc.slots = sized(sc.slots, len(dict))
			memo := sc.slots
			for j, r := range rows {
				code := keys[r]
				g := memo[code] - 1
				if g < 0 {
					g = t.slot(dict[code], nil)
					memo[code] = g + 1
				}
				out[j] = g
			}
		default:
			f.w.Add(sp.Decode(keys[la:lb]))
			t.resolve([][]int64{keys}, rows, out)
		}
	}
	t.fold(sc.gids, sc.ins)
}

// run resolves the selected rows of one RLE run of key v to one group,
// writing it into gids; an aggregate of the key column itself whose
// window was never read folds in closed form.
func (f *scanFold) run(v int64, rows, gids []int32) {
	if len(rows) == 0 {
		return
	}
	g := f.t.slot(v, nil)
	for j := range gids {
		gids[j] = g
	}
	for ai, c := range f.fs.vals {
		if c == colstore.Column(f.fs.groups[0]) && f.sc.ins[ai].ints == nil {
			f.t.addN(g, ai, v, int64(len(rows)))
		}
	}
}

// rowsIn returns the part of the ascending rows that lies in [a, b).
func rowsIn(rows []int32, a, b int) []int32 {
	i, _ := slices.BinarySearch(rows, int32(a))
	j, _ := slices.BinarySearch(rows[i:], int32(b))
	return rows[i : i+j]
}

// ---------------------------------------------------------------------------
// Fused filter→probe
// ---------------------------------------------------------------------------

// scanProbe is the join's fused probe source (join.go): a resolved,
// eligible probe-side Scan.  The probe keys stream straight from the
// compressed key segments, and the intermediate probe Relation is never
// built — matched rows gather from the base table after the probe.
type scanProbe struct {
	b      *Binding
	keyIdx int
	// keyInts yields the probe keys: the key column itself, or a string
	// key's code column (keys are then codes of the column's dictionary,
	// sealed or live).
	keyInts *colstore.IntColumn
}

// scanProbe reports how (and whether) this join can fuse its probe
// feed into the left child: a *Scan (probe keys run in one dictionary's
// code domain) that emits a BIGINT or VARCHAR join key.  Everything it reads is static, so EXPLAIN and Run
// cannot disagree.  nil runs the child to a relation first, which
// reports any binding errors itself.
func (j *Join) scanProbe() *scanProbe {
	s, ok := j.Left.(*Scan)
	if !ok {
		return nil
	}
	b, err := s.Bind()
	if err != nil {
		return nil
	}
	sp := &scanProbe{b: b, keyIdx: b.index(j.LeftKey)}
	if sp.keyIdx < 0 {
		return nil
	}
	switch kc := sp.b.Cols[sp.keyIdx].(type) {
	case *colstore.IntColumn:
		sp.keyInts = kc
	case *colstore.StringColumn:
		sp.keyInts = kc.CodeColumn()
	default:
		return nil
	}
	return sp
}

func (sp *scanProbe) keyDomain() (colstore.Type, []string) {
	key := &sp.b.tmpl[sp.keyIdx]
	return key.Type, key.Dict
}
func (sp *scanProbe) rows(snap int64) int { return sp.b.Table.RowsAsOf(snap) }
func (sp *scanProbe) fused() bool         { return true }

// streamWindow reads column c over the window [lo, hi) into out.  dense
// bulk-decodes the whole window once (DecodeRange streams each compressed
// segment slice a single time); otherwise only the selected rows are
// point-read, at gatherCol's sparse price.  A pure function of (column,
// window, selection).
func streamWindow(c *colstore.IntColumn, rows []int32, lo, hi int, dense bool, out []int64) energy.Counters {
	if dense {
		return c.DecodeRange(lo, hi, out)
	}
	for _, r := range rows {
		out[r] = c.Get(lo + int(r))
	}
	return pointReads(len(rows), false)
}

// pointReads prices n point reads of a column's values, or of dictionary
// codes, which skip the deref and cost less: gatherCol's sparse price.
func pointReads(n int, codes bool) energy.Counters {
	if codes {
		return energy.Counters{CacheMisses: uint64(n) / 8, Instructions: uint64(n)}
	}
	return energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n) * 2}
}

// window filters rows [lo, hi) with the scan's predicate sequence and
// resolves the selected probe keys straight from the key segments, span
// by span like scanFold.sweep — the probe side is never materialized.  A
// dictionary span yields its codes (streamed when dense, point-read
// otherwise) and looks each distinct one up once, on first sight, through
// a code memo (the dictionary is touched once per code); an RLE span
// looks up once per run of equal selected keys; every other span
// (bitpack, delta, raw, the unsealed tail) each row.  Under the fold
// sink a direct key's rows (joinRun.resolve) write their one match each
// straight into the fold's vectors — group, probe row and, when an
// aggregate reads the build side, build row — and leave no hit.
func (sp *scanProbe) window(snap int64, lo, hi int, sc *morselScratch, fold *probeFold, jr *joinRun, c *ProbeCounts) (probeWindow, energy.Counters) {
	nrows := hi - lo
	sel, w := sp.b.selectRows(snap, lo, hi, sc)
	pw := probeWindow{n: sel.Count()}
	w.TuplesOut += uint64(pw.n) // the scan stage's logical output
	if pw.n == 0 {
		return pw, w
	}
	if pw.n < nrows {
		sc.rows = sel.AppendIndices(sc.rows[:0])
		pw.sel = sc.rows
	}
	// Key stream.  The pair sink decodes in bulk only a fully selected
	// window and point-reads anything narrower — exactly what the
	// materializing scan charges to extract the same key column, so the
	// cross-path energy gap measures eliminated materialization, not pricing
	// skew.  The aggregate sink has no materialized twin to mirror and
	// follows the fused fold's density rule.  Either way a pure function of
	// (snapshot, predicates, grid), and no 8-byte key re-stream follows: the
	// decode pays the physical bytes — the saving the fused feed exists for.
	pw.dense = pw.n == nrows
	var gids, probeAt, buildAt []int32 // the fold's vectors, for direct rows
	buildRows := false                 // whether an aggregate reads a build row
	if fold != nil {
		pw.dense = pw.n*8 >= nrows
		w.Add(fold.bind(sc, pw.sel, lo, hi, pw.dense))
		gids, probeAt, buildAt = sc.gids[:MorselRows], sc.probeAt[:MorselRows], sc.buildAt[:MorselRows]
		buildRows = fold.pf.price.BuildVals > 0
	}
	keys := window(&sc.keys, nrows)
	points, codes, direct := 0, 0, 0 // a sparse window's point reads of values, of codes; direct rows
	sc.spans = sp.keyInts.AppendSpans(sc.spans[:0], lo, hi)
	for _, s := range sc.spans {
		a, b := s.A-lo, s.B-lo
		at := iota32[a:b]
		if pw.sel != nil {
			at = rowsIn(pw.sel, a, b)
		}
		// The span's hits, in sc.hits' reserved room (probeMorsel).
		hits := sc.hits[len(sc.hits) : len(sc.hits)+len(at)]
		sc.hits = sc.hits[:len(sc.hits)+len(at)]
		if s.Enc == compress.Dict {
			if pw.dense {
				w.Add(s.Codes(keys[a:b]))
			} else {
				for _, r := range at {
					keys[r] = s.Code(lo + int(r))
				}
				codes += len(at)
			}
			// A code's resolution, and a direct code's build row beside it.
			// The loop writes no build row: a fold that reads the build side
			// fills in the span's direct rows' afterwards, off the hot loop.
			dict := s.DictVals()
			sc.memo, sc.memoRows = sized(sc.memo, len(dict)), room(sc.memoRows, len(dict))[:len(dict)]
			memo, span := sc.memo, direct
			for j, r := range at {
				k := keys[r]
				m := memo[k]
				if m == 0 {
					m, sc.memoRows[k] = jr.resolve(sc, dict[k], c, fold)
					memo[k] = m
				}
				if m > 0 {
					hits[j] = m - 2
					continue
				}
				hits[j] = -1
				gids[direct], probeAt[direct] = ^m, r
				direct++
			}
			for d := span; buildRows && d < direct; d++ {
				buildAt[d] = sc.memoRows[keys[probeAt[d]]]
			}
			continue
		}
		if pw.dense {
			w.Add(s.Decode(keys[a:b]))
		} else {
			for _, r := range at {
				keys[r] = sp.keyInts.Get(lo + int(r))
			}
			points += len(at)
		}
		var m, br int32
		for j, r := range at {
			if j == 0 || s.Enc != compress.RLE || keys[r] != keys[at[j-1]] {
				m, br = jr.resolve(sc, keys[r], c, fold)
			}
			if m > 0 {
				hits[j] = m - 2
				continue
			}
			hits[j] = -1
			gids[direct], probeAt[direct], buildAt[direct] = ^m, r, br
			direct++
		}
	}
	if fold != nil {
		sc.gids, sc.probeAt, sc.buildAt = gids[:direct], probeAt[:direct], buildAt[:direct]
		c.Matches += direct
	}
	typ, _ := sp.keyDomain()
	w.Add(pointReads(points, typ == colstore.String))
	w.Add(pointReads(codes, true))
	return pw, w
}

// resolve looks key k up (joinRun.lookup) and returns its resolution
// within its span: its hit index + 2 (1: no match) — or, for a direct
// key, ^group (negative) and its build row r.  While the fold is direct
// (probeFold.direct: its group does not depend on the probe row), a
// collapsed key is direct: its group is slotted at its lookup, once per
// span, and its rows fold without a hit.  A chained key walks its chain
// in probeMorsel, as does every key under the pair sink or a probe-side
// group; the morsel's first chained key ends its direct keys, so no later
// key's group is slotted ahead of the chain's and the table's first-seen
// group order stays probe-row order.
func (jr *joinRun) resolve(sc *morselScratch, k int64, c *ProbeCounts, fold *probeFold) (v, r int32) {
	h := jr.lookup(sc, k, c)
	if h < 0 || fold == nil || !fold.direct {
		return h + 2, 0
	}
	if hit := &sc.res[h]; hit.one {
		return ^fold.group(0, hit.r), hit.r
	}
	fold.direct = false
	return h + 2, 0
}

// gather materializes the probe side of the join output: the key column
// verbatim from the probe-stage key stream, the other columns straight
// from the base table at the matched global rows.
func (sp *scanProbe) gather(keys []int64, rows []int32) (*Relation, energy.Counters) {
	out := &Relation{N: len(rows), Cols: make([]Col, len(sp.b.Cols))}
	var w energy.Counters
	for ci, col := range sp.b.Cols {
		if ci == sp.keyIdx {
			// The probe stage decoded the key for every match and emitted
			// it with the row pair, so the output key column is those
			// values verbatim — no second touch of the key segments (the
			// re-read the fused feed exists to eliminate).  Movement into
			// the output block is priced once, by the join's gather.
			oc := sp.b.tmpl[ci] // name, type, and a string key's dictionary
			// Non-nil at zero matches, like every gathered column.
			oc.I = append(make([]int64, 0, len(keys)), keys...)
			out.Cols[ci] = oc
			continue
		}
		// A match list is no contiguous window: every other column
		// point-reads its matched global rows, at gatherCol's sparse price
		// (the empty window [0, 0) makes any match sparse).
		oc, gw := gatherCol(col, sp.b.tmpl[ci], rows, 0, 0)
		out.Cols[ci] = oc
		w.Add(gw)
	}
	return out, w
}

// ---------------------------------------------------------------------------
// Fused probe→aggregate: the probe-match feeder
// ---------------------------------------------------------------------------

// probeFeed is the probe-match feeder of an aggregation (agg.go): the
// child join's scan probe source plus, for the group key and every
// aggregate, which side's column it reads.
type probeFeed struct {
	a     *HashAgg
	join  *Join
	probe *scanProbe
	aggShape
	group probeAggInput
	aggs  []probeAggInput
	// wins are the distinct probe-side columns the fold reads, each
	// streamed into one window per morsel.
	wins []*colstore.IntColumn
	// groupDict decodes a probe-side string group's dictionary codes.
	groupDict []string
	price     ProbeFold // the fold's price shape (ProbeFoldWork)
}

// probeAggInput locates one fold input: a probe-side window (index into
// probeFeed.wins) or a build-relation column, -1 where absent.  Neither
// set means no value is read (global group, COUNT).
type probeAggInput struct{ win, build int }

// probeFeed resolves the probe-match feeder, nil when the child join's
// matches cannot fold straight into partial aggregates:
//
//	child        a *Join whose probe side fuses (scanProbe) and whose
//	             build side is a *Scan emitting a key of the probe key's
//	             type
//	GROUP BY     none, or one column of either side: BIGINT, or a string
//	             (its codes — a probe-side window or the build relation's
//	             column — beside its dictionary)
//	aggregates   COUNT(*), COUNT(col) of a join output column, or
//	             SUM/MIN/MAX/AVG of a BIGINT column of either side (the
//	             probe windows and build columns are integer; no workload
//	             sums a DOUBLE over a join)
//
// Columns resolve by name against the join's output schema, exactly as
// the relation feeder would find them in the joined relation.  Every
// input is static — no row count, no snapshot — so EXPLAIN and Run cannot
// disagree.  Anything else returns nil and the join emits pairs for the
// relation feeder.
func (a *HashAgg) probeFeed() *probeFeed {
	j, ok := a.Child.(*Join)
	if !ok || len(a.GroupBy) > 1 {
		return nil
	}
	fp := j.scanProbe()
	rs, ok := j.Right.(*Scan)
	if fp == nil || !ok {
		return nil
	}
	rb, err := rs.Bind()
	if err != nil {
		return nil
	}
	rki := rb.index(j.RightKey)
	if keyType, _ := fp.keyDomain(); rki < 0 || rb.tmpl[rki].Type != keyType {
		return nil // the pair path reports the missing or mismatched key
	}

	// The join's output schema: probe columns, then the build columns
	// minus the right key, renamed exactly as the pair path would.
	nl := len(fp.b.tmpl)
	var buildOf []int // join output column nl+i ← build relation column buildOf[i]
	for i := range rb.tmpl {
		if rb.tmpl[i].Name != j.RightKey {
			buildOf = append(buildOf, i)
		}
	}
	schema := mergeJoinColumns(&Relation{Cols: fp.b.tmpl}, &Relation{Cols: rb.tmpl}, j.RightKey)
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
		switch c := fp.b.Cols[o].(type) {
		case *colstore.IntColumn:
			ints = c
		case *colstore.StringColumn:
			if !group {
				return in, false
			}
			ints, pf.groupDict = c.CodeColumn(), fp.b.tmpl[o].Dict
		default:
			return in, false // a DOUBLE input: the pair path and the relation feeder fold it
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
	pf.valTypes = make([]colstore.Type, len(a.Aggs)) // every input BIGINT
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
		if pf.aggs[i].build >= 0 {
			pf.price.BuildVals++
		}
	}
	pf.price.Aggs, pf.price.BuildGroup = len(a.Aggs), pf.group.build >= 0
	pf.setKinds(a.Aggs)
	return pf
}

// probeFold is the aggregate sink of one probe morsel: every match
// (window-local probe row i, build row r) resolves to its group in the
// partial table t, and the morsel's matches then fold once.  The
// build-side columns are shared by all morsels; the windows, the match
// vectors and the slot memo are this morsel's, bound from worker scratch.
type probeFold struct {
	pf         *probeFeed
	t          *groupTable
	sc         *morselScratch
	dicts      [][]string // every partial's key dictionaries: a string group's
	buildGroup []int64    // per build row: its group key (build-side groups)
	buildVals  [][]int64  // per aggregate: its build-side input column
	groupWin   []int64    // probe-side group keys of the window
	direct     bool       // collapsed keys fold in the window pass, up to the morsel's first chained key (joinRun.resolve)
}

// bind streams the fold's probe-side windows for rows [lo, hi), following
// the key stream's density verdict, and resets the match vectors and the
// direct verdict.
func (f *probeFold) bind(sc *morselScratch, rows []int32, lo, hi int, dense bool) energy.Counters {
	var w energy.Counters
	pf := f.pf
	for k, c := range pf.wins {
		w.Add(streamWindow(c, rows, lo, hi, dense, sc.win(k, hi-lo)))
	}
	if pf.group.win >= 0 {
		f.groupWin = sc.wins[pf.group.win]
	}
	f.sc, f.direct = sc, pf.group.win < 0
	sc.gids, sc.probeAt, sc.buildAt = room(sc.gids, MorselRows), room(sc.probeAt, MorselRows), room(sc.buildAt, MorselRows)
	return w
}

// hit buffers the match of window-local probe row i with build row r for
// the fold.  Matches arrive in probe-row order with build rows ascending
// within duplicates — the pair path's output order — and every direct
// key's group was slotted at its lookup, ahead of the morsel's first
// chained key (joinRun.resolve), so the table's first-seen group order is
// the materialized join's.
func (f *probeFold) hit(i int, r int32) {
	sc := f.sc
	if len(sc.gids) == MorselRows {
		f.foldMatches(sc)
	}
	sc.gids, sc.probeAt, sc.buildAt = append(sc.gids, f.group(i, r)), append(sc.probeAt, int32(i)), append(sc.buildAt, r)
}

// group resolves the group of the match (probe row i, build row r): an
// array load when the key is bounded (probeFeed.fold), a hash otherwise.
func (f *probeFold) group(i int, r int32) int32 {
	var key int64
	switch {
	case f.groupWin != nil:
		key = f.groupWin[i]
	case f.buildGroup != nil:
		key = f.buildGroup[r]
	}
	return f.t.slot(key, nil)
}

// foldMatches folds the buffered matches and empties the buffers: a
// probe-side input is read at each match's probe row, a build-side one at
// its build row.  hit calls it every MorselRows matches, so a
// duplicate-heavy join's buffers never outgrow a morsel (bind sizes
// them).  The chunks fold in match order, so chunking changes no bit of
// the result.
func (f *probeFold) foldMatches(sc *morselScratch) {
	sc.ins = sized(sc.ins, len(f.pf.aggs))
	for ai, in := range f.pf.aggs {
		switch {
		case in.win >= 0:
			sc.ins[ai] = foldIn{ints: sc.wins[in.win], at: sc.probeAt}
		case f.buildVals[ai] != nil:
			sc.ins[ai] = foldIn{ints: f.buildVals[ai], at: sc.buildAt}
		}
	}
	f.t.fold(sc.gids, sc.ins)
	sc.gids, sc.probeAt, sc.buildAt = sc.gids[:0], sc.probeAt[:0], sc.buildAt[:0]
}

// flush folds the morsel's last matches.  The fold is priced once per
// pass, at the pass's counts (ProbeFoldWork); the match buffers are
// bounded worker scratch, unpriced like the scan feeder's gid vector.
func (f *probeFold) flush() {
	f.foldMatches(f.sc)
}

// ProbeFold is the shape of a fused probe→aggregate fold: what it reads
// per match, the arguments of its price besides the counts.
type ProbeFold struct {
	Aggs       int  // aggregates folded per match
	BuildVals  int  // aggregate inputs read from the build side
	BuildGroup bool // the group key is a build column
}

// ProbeFoldWork prices folding a probe pass's matches into partial
// aggregates: the aggregate stage's logical rows and scanFeed.morsel's
// fold budget per match, plus a cache-resident touch of each match's
// group slot and build-side inputs — and of a build-side group key once
// per build entry read (ProbeCounts.Touches), so a collapsed key reads
// its group once.  The kernel bills its fold phase with it and the
// planner prices its estimate with it — one formula.
func ProbeFoldWork(f ProbeFold, matches, touches int) energy.Counters {
	m := uint64(matches)
	reads := m * uint64(1+f.BuildVals)
	if f.BuildGroup {
		reads += uint64(touches)
	}
	return energy.Counters{
		TuplesIn:     m,
		Instructions: m * uint64(4+2*f.Aggs),
		CacheMisses:  reads / 8,
	}
}

// fold implements aggFeeder: the join with the fold sink.  The build side
// runs and is hashed as ever (Join.build), then each probe morsel folds
// its matches into a partial table — one window set, the probe source's
// morsel grid; no pair list, no gathered join relation.  A group key is
// bounded as the scan feeder bounds it, so its slot is an array load: a
// string by its dictionary, a build-side BIGINT by the build relation's
// values, a probe-side one by its column's zone maps, the global group's
// by its one key.
func (pf *probeFeed) fold(ctx *Ctx) ([]*groupTable, energy.Counters, string, error) {
	jr, err := pf.join.build(ctx, pf.probe)
	if err != nil {
		return nil, energy.Counters{}, "", err
	}
	f := &probeFold{pf: pf, buildVals: make([][]int64, len(pf.aggs))}
	switch {
	case pf.group.build >= 0:
		c := &jr.right.Cols[pf.group.build]
		f.buildGroup, f.dicts = c.I, [][]string{c.Dict}
		if c.Type == colstore.String {
			pf.denseKey(0, int64(len(c.Dict))-1)
		} else if len(c.I) > 0 {
			pf.denseKey(slices.Min(c.I), slices.Max(c.I))
		}
	case pf.groupDict != nil:
		f.dicts = [][]string{pf.groupDict}
		pf.denseKey(0, int64(len(pf.groupDict))-1)
	case pf.group.win >= 0:
		if lo, hi, ok := pf.wins[pf.group.win].MinMax(); ok {
			pf.denseKey(lo, hi)
		}
	default:
		pf.denseKey(0, 0) // the global group's one key
	}
	for ai, in := range pf.aggs {
		if in.build >= 0 {
			f.buildVals[ai] = jr.right.Cols[in.build].I
		}
	}
	outs, c, qw, err := jr.probe(ctx, f)
	if err != nil {
		return nil, qw, "", err
	}
	ctx.Charge(pf.a.Label()+" [probe fold]", c.Matches, ProbeFoldWork(pf.price, c.Matches, c.Touches))
	partials := make([]*groupTable, len(outs))
	for i := range outs {
		partials[i] = outs[i].agg
	}
	return partials, qw, pf.a.Label() + " [fused probe→agg]", nil
}

// ---------------------------------------------------------------------------
// Planner mirrors
// ---------------------------------------------------------------------------

// fusion implements fuser: which of the two fused feeders, if any.
func (a *HashAgg) fusion() string {
	switch {
	case a.scanFeed() != nil:
		return "fused"
	case a.probeFeed() != nil:
		return "fused probe→agg"
	}
	return ""
}

// fusion implements fuser: whether the probe feed fuses.
func (j *Join) fusion() string {
	if j.scanProbe() != nil {
		return "fused"
	}
	return ""
}

// FusedAggWork prices HashAgg{Child: scan, GroupBy: groupBy, Aggs: aggs}
// as its scan feeder runs it at the latest snapshot, window by window of
// the morsel grid (scanFeed.window): a window that folds from a synopsis
// at exactly the counters it books; one that streams at the scan
// kernels' own price of the window (selectRows on no scratch) plus the
// fold of its estimated matches into at most groups distinct keys
// (streamFold); and the coordinator's merge at mergeWork.  The streamed
// windows share the matches, sel of the table's rows, that the folded
// windows do not hold, in proportion to the rows their zone maps leave
// possible (Binding.possible).  folded lists, per window, whether it
// folds.  ok is false when the aggregation is not scan-fed.  The
// planner's estimate of a scan-fed aggregation, so a plan all of whose
// windows fold is priced at exactly its Meter.
func FusedAggWork(scan *Scan, groupBy []string, aggs []expr.AggSpec, sel, groups float64) (w energy.Counters, folded []bool, ok bool) {
	sf := (&HashAgg{Child: scan, GroupBy: groupBy, Aggs: aggs}).scanFeed()
	if sf == nil {
		return w, nil, false
	}
	occupied := func(m float64) float64 { return math.Round(groups * (1 - math.Pow(1-1/groups, m))) }
	keys := map[int64]bool{} // the folded windows' groups
	n := sf.scan.Table.RowsAsOf(0)
	left, possible := sel*float64(n), 0.0
	var streams [][3]int // lo, hi, possible rows of each streamed window
	var partialGroups, streamed float64
	for lo := 0; lo < n; lo += MorselRows {
		hi := min(lo+MorselRows, n)
		syn, from, to, ww := sf.window(0, lo, hi)
		folded = append(folded, syn != nil)
		if syn == nil {
			p := sf.scan.possible(lo, hi)
			streams, possible = append(streams, [3]int{lo, hi, p}), possible+float64(p)
			continue
		}
		for g, k := range syn.Keys[from:to] {
			if len(groupBy) == 0 {
				k = 0 // every group folds into the global one
			}
			keys[k] = true
			left -= float64(syn.Counts[from+g])
		}
		partialGroups += float64(sf.groupsOf(to - from))
		w.Add(ww)
	}
	share := 0.0
	if possible > 0 {
		share = min(1, max(0, left)/possible)
	}
	for _, s := range streams {
		m := math.Round(share * float64(s[2]))
		_, ww := sf.scan.selectRows(0, s[0], s[1], nil)
		w.Add(ww)
		w.Add(sf.streamFold(s[1]-s[0], int(m), int(occupied(m))))
		partialGroups += occupied(m)
		streamed += m
	}
	if len(folded) > 1 {
		w.Add(mergeWork(uint64(partialGroups), uint64(max(float64(len(keys)), occupied(streamed)))))
	}
	return w, folded, true
}

// streamFold prices a streamed window's fold of m of its rows selected
// into g groups (scanFold): the scan stage's output, foldWork, and every
// column the fold reads — a GROUP BY column and each aggregate input — at
// scanFold's density rule: point-read when sparse; streamed whole when
// dense, a raw DOUBLE at 8 bytes a row and a BIGINT or code column at its
// stored bytes per row, decoded at two instructions a row.
func (sf *scanFeed) streamFold(rows, m, g int) energy.Counters {
	if m == 0 {
		return energy.Counters{}
	}
	w := foldWork(m, g, len(sf.vals))
	w.TuplesOut += uint64(m)
	dense, n := m*8 >= rows, m
	if dense {
		n = rows
	}
	read := func(c colstore.Column) {
		switch c := c.(type) {
		case *colstore.FloatColumn:
			w.Add(floatRead(n, dense))
		case *colstore.IntColumn:
			if !dense {
				w.Add(pointReads(n, false))
			} else if c.Len() > 0 {
				w.Add(energy.Counters{BytesReadDRAM: c.Bytes() * uint64(n) / uint64(c.Len()), Instructions: 2 * uint64(n)})
			}
		}
	}
	for _, c := range sf.groups {
		read(c)
	}
	for _, c := range sf.vals {
		read(c)
	}
	return w
}

// FusedProbeEligible reports whether a Join probing scan on leftKey
// fuses its probe feed — the planner's pricing mirror of scanProbe.
func FusedProbeEligible(scan *Scan, leftKey string) bool {
	j := &Join{Left: scan, LeftKey: leftKey}
	return j.scanProbe() != nil
}

// FusedProbeAgg reports whether HashAgg{Child: child, GroupBy, Aggs}
// folds its child join's matches straight into partial aggregates, and
// the shape its fold is priced at — the planner's pricing mirror of
// probeFeed.
func FusedProbeAgg(child Node, groupBy []string, aggs []expr.AggSpec) (ProbeFold, bool) {
	a := &HashAgg{Child: child, GroupBy: groupBy, Aggs: aggs}
	if pf := a.probeFeed(); pf != nil {
		return pf.price, true
	}
	return ProbeFold{}, false
}
