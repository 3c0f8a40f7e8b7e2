package exec

import (
	"fmt"
	"slices"
	"sort"

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
// writes no pair list and no joined relation at all.
//
// Determinism contract.  The fused output relation is byte-identical to
// the materializing pipeline's: predicates run through the same Filter
// kernel, group keys are single int64 values (an integer group value or
// a dictionary code — never concatenated bytes, so the aggRange
// NUL-collision class of bug cannot exist here), integer aggregates
// accumulate in exact int64 arithmetic (associative, so the table grid
// and the filtered-relation grid sum bit-identically), and partials
// merge in morsel order, shard by shard.  Value-needing aggregates over
// Float64 columns are NOT eligible: float addition is non-associative
// and the fused morsel grid differs from the materialized one, so those
// plans keep the generic HashAgg and its pinned accumulation order.
// Charged counters are pure functions of (snapshot, plan, data) — never
// of DOP — like every other morsel kernel in this package.

// ---------------------------------------------------------------------------
// Fused filter→aggregate
// ---------------------------------------------------------------------------

// fusedAggPlan is a resolved, eligible Scan+HashAgg fusion: the bound
// scan plus, per shard, the group-key source and the aggregate inputs.
type fusedAggPlan struct {
	scan   *Binding
	shards []fusedAggShard
	fusedAggOut
	// trackFirst makes every morsel table record the row of each group's
	// first selected appearance (fusedAggTable.first): across more than
	// one shard the merged groups are ordered by its global sequence.
	trackFirst bool
}

// fusedAggOut is the output shape of a fused aggregation: the group-key
// column and, per aggregate, whether it reads Int64 values (COUNT does
// not).  groupDict decodes a string group's int64 ids — dictionary codes
// or interned build-side strings — once per output group.
type fusedAggOut struct {
	groupName string
	groupType colstore.Type
	groupDict []string
	intIn     []bool
}

// fusedAggShard is one shard's column bindings of a fused aggregation.
type fusedAggShard struct {
	sb *ShardBinding
	// groupInts yields the group keys — the group column itself, or a
	// string group column's code column; nil for global aggregation.
	groupInts *colstore.IntColumn
	// aggInts[i] is the Int64 input of aggregate i, nil when the
	// aggregate needs no values (COUNT).
	aggInts []*colstore.IntColumn
}

// fusedAggPlan reports how (and whether) this HashAgg can fold its child
// scan's selection vectors directly.  The one eligibility table:
//
//	child        a *Scan on the full-scan access path
//	GROUP BY     none, or one BIGINT column, or — on a single-shard
//	             source only (per-shard dictionaries assign incomparable
//	             codes) — one string column not emitted as codes
//	aggregates   COUNT(*), COUNT(col) of an emitted column, or
//	             SUM/MIN/MAX/AVG of an emitted Int64 column
//
// Anything else returns nil and the generic HashAgg aggregates the
// scan's relation (and reports any binding errors itself).
func (a *HashAgg) fusedAggPlan() *fusedAggPlan {
	s, ok := a.Child.(*Scan)
	if !ok || s.Access.Kind != FullScan || len(a.GroupBy) > 1 {
		return nil
	}
	b, err := s.Bind()
	if err != nil {
		return nil
	}
	group := -1
	fp := &fusedAggPlan{scan: b}
	if len(a.GroupBy) == 1 {
		if group = b.index(a.GroupBy[0]); group < 0 {
			return nil
		}
		fp.groupName, fp.groupType = a.GroupBy[0], b.tmpl[group].Type
		fp.trackFirst = b.multi()
	}
	aggIdx := make([]int, len(a.Aggs))
	fp.intIn = make([]bool, len(a.Aggs))
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
		fp.intIn[i] = true
	}
	for _, sb := range b.Shards {
		fs := fusedAggShard{sb: sb, aggInts: make([]*colstore.IntColumn, len(a.Aggs))}
		if group >= 0 {
			switch gc := sb.Cols[group].(type) {
			case *colstore.IntColumn:
				fs.groupInts = gc
			case *colstore.StringColumn:
				if b.multi() || sb.asCode[group] {
					return nil
				}
				fs.groupInts, fp.groupDict = gc.CodeColumn(), gc.Dict()
			default:
				return nil // float group keys keep the generic path
			}
		}
		for i, ci := range aggIdx {
			if ci < 0 {
				continue
			}
			ic, ok := sb.Cols[ci].(*colstore.IntColumn)
			if !ok {
				return nil // float (or string) aggregate inputs stay generic
			}
			fs.aggInts[i] = ic
		}
		fp.shards = append(fp.shards, fs)
	}
	return fp
}

// fusedAggTable is one (partial) fused aggregation result: an
// open-addressing table over int64 group keys with flat accumulator
// arrays — no Go map, no string keys, group-major layout.  slotGroup
// stores group index + 1 so a freshly made table is all-empty without a
// fill pass.
//
//lint:hotpath
type fusedAggTable struct {
	mask      uint64
	slotKey   []int64
	slotGroup []int32 // group index + 1; 0 = empty
	keys      []int64 // group keys in first-seen order
	counts    []int64 // per group
	isums     []int64 // group-major: [group*nAggs + agg]
	imins     []int64
	imaxs     []int64
	seen      []bool
	nAggs     int
	// First-appearance tracking (sharded aggregation only).  When firstOn
	// is set, first[g] records base + the window-local row of group g's
	// first selected appearance (-1 until noted); the sharded merge
	// rewrites rows into global sequences and keeps the minimum.
	firstOn bool
	base    int64
	first   []int64
}

func newFusedAggTable(nAggs int) *fusedAggTable {
	const size = 256
	return &fusedAggTable{
		mask:      size - 1,
		slotKey:   make([]int64, size),
		slotGroup: make([]int32, size),
		nAggs:     nAggs,
	}
}

// slot returns key's group index, inserting it (in first-seen order) on
// first sight.
func (t *fusedAggTable) slot(key int64) int32 {
	i := mix64(uint64(key)) & t.mask
	for {
		g := t.slotGroup[i]
		if g == 0 {
			t.slotKey[i] = key
			t.keys = append(t.keys, key)
			t.counts = append(t.counts, 0)
			for a := 0; a < t.nAggs; a++ {
				t.isums = append(t.isums, 0)
				t.imins = append(t.imins, 0)
				t.imaxs = append(t.imaxs, 0)
				t.seen = append(t.seen, false)
			}
			g = int32(len(t.keys))
			t.slotGroup[i] = g
			if uint64(len(t.keys))*2 >= t.mask+1 {
				t.grow()
			}
			return g - 1
		}
		if t.slotKey[i] == key {
			return g - 1
		}
		i = (i + 1) & t.mask
	}
}

// firstOf returns group gi's recorded first-appearance value, -1 when
// none was noted (or tracking is off).
func (t *fusedAggTable) firstOf(gi int) int64 {
	if gi >= len(t.first) {
		return -1
	}
	return t.first[gi]
}

// noteFirst records window-local row i as group g's first selected
// appearance, once.  Fold loops visit rows in ascending order and
// partials merge in morsel order, so the first note IS the first
// selected occurrence.
func (t *fusedAggTable) noteFirst(g int32, i int) {
	if !t.firstOn {
		return
	}
	for int(g) >= len(t.first) {
		t.first = append(t.first, -1)
	}
	if t.first[g] < 0 {
		t.first[g] = t.base + int64(i)
	}
}

// noteFirstRange records the first selected row of [lo, hi) as group g's
// first appearance — the run-at-a-time closed forms never see individual
// rows, so on insertion the exact first set bit is looked up here.
func (t *fusedAggTable) noteFirstRange(g int32, sel *vec.Bitvec, lo, hi int) {
	if !t.firstOn {
		return
	}
	for int(g) >= len(t.first) {
		t.first = append(t.first, -1)
	}
	if t.first[g] >= 0 {
		return
	}
	for i := lo; i < hi; i++ {
		if sel.Get(i) {
			t.first[g] = t.base + int64(i)
			return
		}
	}
}

func (t *fusedAggTable) grow() {
	size := (t.mask + 1) * 2
	t.mask = size - 1
	t.slotKey = make([]int64, size)
	t.slotGroup = make([]int32, size)
	for gi, key := range t.keys {
		i := mix64(uint64(key)) & t.mask
		for t.slotGroup[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slotKey[i] = key
		t.slotGroup[i] = int32(gi + 1)
	}
}

// addN folds n occurrences of value v into aggregate ai of group g — the
// run-at-a-time closed form (sum += n*v; min/max see v once) and, with
// n=1, the row-at-a-time case.
func (t *fusedAggTable) addN(g int32, ai int, v, n int64) {
	o := int(g)*t.nAggs + ai
	t.isums[o] += v * n
	if !t.seen[o] || v < t.imins[o] {
		t.imins[o] = v
	}
	if !t.seen[o] || v > t.imaxs[o] {
		t.imaxs[o] = v
	}
	t.seen[o] = true
}

// mergeFrom folds the partial src into t.  Like mergeInto, callers must
// merge partials in morsel order so first-seen group order is the global
// row order of first selected occurrence.
func (t *fusedAggTable) mergeFrom(src *fusedAggTable) {
	for gi, key := range src.keys {
		g := t.slot(key)
		if t.firstOn {
			for int(g) >= len(t.first) {
				t.first = append(t.first, -1)
			}
			if sf := src.firstOf(gi); sf >= 0 && (t.first[g] < 0 || sf < t.first[g]) {
				t.first[g] = sf
			}
		}
		t.counts[g] += src.counts[gi]
		for a := 0; a < t.nAggs; a++ {
			so, do := gi*t.nAggs+a, int(g)*t.nAggs+a
			t.isums[do] += src.isums[so]
			if src.seen[so] {
				if !t.seen[do] || src.imins[so] < t.imins[do] {
					t.imins[do] = src.imins[so]
				}
				if !t.seen[do] || src.imaxs[so] > t.imaxs[do] {
					t.imaxs[do] = src.imaxs[so]
				}
				t.seen[do] = true
			}
		}
	}
}

// mergePartials folds per-morsel partial tables into one, in morsel order,
// and counts the partial groups merged (the merge's price).
func mergePartials(nAggs int, trackFirst bool, partials []*fusedAggTable) (*fusedAggTable, uint64) {
	t := newFusedAggTable(nAggs)
	t.firstOn = trackFirst
	var groups uint64
	for _, p := range partials {
		groups += uint64(len(p.keys))
		t.mergeFrom(p)
	}
	return t, groups
}

// sortByFirst reorders the table's groups by ascending first-appearance
// sequence (unique per group), the merged global group order.
func (t *fusedAggTable) sortByFirst() {
	n := len(t.keys)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return t.firstOf(perm[a]) < t.firstOf(perm[b]) })
	keys := make([]int64, n)
	counts := make([]int64, n)
	isums := make([]int64, n*t.nAggs)
	imins := make([]int64, n*t.nAggs)
	imaxs := make([]int64, n*t.nAggs)
	seen := make([]bool, n*t.nAggs)
	first := make([]int64, n)
	for di, si := range perm {
		keys[di] = t.keys[si]
		counts[di] = t.counts[si]
		first[di] = t.firstOf(si)
		copy(isums[di*t.nAggs:(di+1)*t.nAggs], t.isums[si*t.nAggs:(si+1)*t.nAggs])
		copy(imins[di*t.nAggs:(di+1)*t.nAggs], t.imins[si*t.nAggs:(si+1)*t.nAggs])
		copy(imaxs[di*t.nAggs:(di+1)*t.nAggs], t.imaxs[si*t.nAggs:(si+1)*t.nAggs])
		copy(seen[di*t.nAggs:(di+1)*t.nAggs], t.seen[si*t.nAggs:(si+1)*t.nAggs])
	}
	t.keys, t.counts, t.isums, t.imins, t.imaxs, t.seen, t.first = keys, counts, isums, imins, imaxs, seen, first
	// The open-addressing slots now point at stale group indices; the
	// table is output-only after sorting, so drop them defensively.
	for i := range t.slotGroup {
		t.slotGroup[i] = 0
		t.slotKey[i] = 0
	}
	for gi, key := range t.keys {
		i := mix64(uint64(key)) & t.mask
		for t.slotGroup[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slotKey[i] = key
		t.slotGroup[i] = int32(gi + 1)
	}
}

// runFusedAgg executes the fused filter→aggregate pipeline as one
// shard-at-a-time fold: one pass per morsel over every surviving shard,
// partials merged in morsel order per shard, shard tables merged in shard
// order.  Across more than one shard each group's first-appearance row
// is rewritten into its global sequence and the merged groups are sorted
// by it — exactly the first-appearance order a scan of the unsharded
// table produces; a single shard already is in that order.
func (a *HashAgg) runFusedAgg(ctx *Ctx, fp *fusedAggPlan) (*Relation, error) {
	snap := ctx.SnapTS
	var final *fusedAggTable
	var partialGroups uint64
	var mergeW energy.Counters
	nparts := 0
	err := fp.scan.eachShard(ctx, func(i int, sb *ShardBinding) error {
		fs := &fp.shards[i]
		partials, work := runMorsels(ctx, sb.Table.RowsAsOf(snap), func(m, lo, hi int) (*fusedAggTable, energy.Counters) {
			return a.fusedAggMorsel(fp, fs, snap, lo, hi)
		})
		if ctx.Canceled() {
			return ErrCanceled
		}
		shardT, groups := mergePartials(len(a.Aggs), fp.trackFirst, partials)
		partialGroups += groups
		nparts += len(partials)
		if fp.trackFirst {
			// First-appearance rows become global sequences: point reads of
			// the stored sequence column, priced like any sparse gather.
			for gi := range shardT.keys {
				if f := shardT.firstOf(gi); f >= 0 {
					shardT.first[gi] = sb.Seq.Get(int(f))
				}
			}
			g := uint64(len(shardT.keys))
			mergeW.Add(energy.Counters{CacheMisses: g / 4, Instructions: g * 2})
		}
		label := a.Label() + " [fused]"
		if fp.scan.multi() {
			label = fmt.Sprintf("%s [fused shard %d]", a.Label(), i)
		}
		ctx.Trace(label, len(shardT.keys), work)
		if final == nil {
			final = shardT
		} else {
			final.mergeFrom(shardT)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if final == nil {
		final = newFusedAggTable(len(a.Aggs))
	}
	if fp.trackFirst {
		final.sortByFirst()
	}
	chargeAggMerge(ctx, nparts, partialGroups, len(final.keys), mergeW)
	return a.buildFusedOutput(&fp.fusedAggOut, final), nil
}

// fusedAggMorsel filters rows [lo, hi) of one shard with the scan's own
// kernel — charging the exact same scan counters — and folds the
// selected rows into a partial table without materializing them.
func (a *HashAgg) fusedAggMorsel(fp *fusedAggPlan, fs *fusedAggShard, snap int64, lo, hi int) (*fusedAggTable, energy.Counters) {
	sel, w := fs.sb.selectRows(snap, lo, hi)
	selCnt := sel.Count()
	w.TuplesOut += uint64(selCnt) // the scan stage's logical output
	t := newFusedAggTable(len(a.Aggs))
	if fp.trackFirst {
		t.firstOn = true
		t.base = int64(lo)
	}
	if selCnt > 0 {
		w.Add(fusedFold(fs, t, sel, lo, hi, selCnt))
		// The aggregate stage's logical rows plus its fold budget; the
		// physical decode/run-stream work is priced inside fusedFold per
		// span.  Strictly below the generic rangeWork, which pays one hash
		// probe miss per row and re-reads every group/agg value at full
		// width from the materialized intermediate.
		w.Add(energy.Counters{
			TuplesIn:     uint64(selCnt),
			TuplesOut:    uint64(len(t.keys)),
			Instructions: uint64(selCnt) * uint64(4+2*len(a.Aggs)),
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
func fusedFold(fs *fusedAggShard, t *fusedAggTable, sel *vec.Bitvec, lo, hi, selCnt int) energy.Counters {
	var w energy.Counters
	nrows := hi - lo
	sparse := selCnt*8 < nrows
	sparseWork := func(n int) energy.Counters {
		return energy.Counters{CacheMisses: uint64(n) / 4, Instructions: uint64(n) * 2}
	}

	// Lazily materialized per-aggregate value windows, indexed by local
	// row.  Only aggregates that cannot use a closed form read them.
	vals := make([][]int64, len(fs.aggInts))
	getVals := func(ai int) []int64 {
		if vals[ai] != nil {
			return vals[ai]
		}
		buf := make([]int64, nrows)
		c := fs.aggInts[ai]
		if sparse {
			sel.ForEach(func(i int) { buf[i] = c.Get(lo + i) })
			w.Add(sparseWork(selCnt))
		} else {
			for _, vsp := range c.Spans(lo, hi) {
				w.Add(vsp.Decode(buf[vsp.A-lo : vsp.B-lo]))
			}
		}
		vals[ai] = buf
		return buf
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
	if fs.groupInts == nil {
		g := t.slot(0)
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

	// Grouped aggregation, sparse: point-read the group keys of the
	// selected rows only.
	if sparse {
		sel.ForEach(func(i int) {
			g := t.slot(fs.groupInts.Get(lo + i))
			t.noteFirst(g, i)
			foldRow(g, i)
		})
		w.Add(sparseWork(selCnt))
		return w
	}

	// Grouped aggregation, dense: sweep the group column span-wise in its
	// physical layout.
	for _, sp := range fs.groupInts.Spans(lo, hi) {
		la, lb := sp.A-lo, sp.B-lo
		switch sp.Enc {
		case colstore.EncRLE:
			w.Add(sp.Runs(func(v int64, ra, rb int) {
				c := sel.CountRange(ra-lo, rb-lo)
				if c == 0 {
					return
				}
				g := t.slot(v)
				t.noteFirstRange(g, sel, ra-lo, rb-lo)
				t.counts[g] += int64(c)
				for ai, ic := range fs.aggInts {
					if ic == nil {
						continue
					}
					if ic == fs.groupInts {
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
					g = t.slot(dict[code])
					code2group[code] = g
					t.noteFirst(g, i)
				}
				foldRow(g, i)
			})
		default: // raw (incl. delta tail), bitpack, delta: bulk decode once
			buf := make([]int64, lb-la)
			w.Add(sp.Decode(buf))
			sel.ForEachRange(la, lb, func(i int) {
				g := t.slot(buf[i-la])
				t.noteFirst(g, i)
				foldRow(g, i)
			})
		}
	}
	return w
}

// buildFusedOutput materializes the fused result, decoding string group
// keys through the dictionary exactly once per output group.
func (a *HashAgg) buildFusedOutput(shape *fusedAggOut, t *fusedAggTable) *Relation {
	n := len(t.keys)
	out := &Relation{N: n}
	if len(a.GroupBy) == 1 {
		oc := Col{Name: shape.groupName, Type: shape.groupType}
		if shape.groupType == colstore.String {
			oc.S = make([]string, n)
			for i, k := range t.keys {
				oc.S[i] = shape.groupDict[k]
			}
		} else {
			oc.I = make([]int64, n)
			copy(oc.I, t.keys)
		}
		out.Cols = append(out.Cols, oc)
	}
	for ai, s := range a.Aggs {
		intOut := s.Func == expr.AggCount ||
			(shape.intIn[ai] && (s.Func == expr.AggSum || s.Func == expr.AggMin || s.Func == expr.AggMax))
		oc := Col{Name: aggOutName(s)}
		if intOut {
			oc.Type = colstore.Int64
			oc.I = make([]int64, n)
		} else {
			oc.Type = colstore.Float64
			oc.F = make([]float64, n)
		}
		for gi := 0; gi < n; gi++ {
			o := gi*t.nAggs + ai
			if intOut {
				switch s.Func {
				case expr.AggCount:
					oc.I[gi] = t.counts[gi]
				case expr.AggSum:
					oc.I[gi] = t.isums[o]
				case expr.AggMin:
					oc.I[gi] = t.imins[o]
				case expr.AggMax:
					oc.I[gi] = t.imaxs[o]
				}
				continue
			}
			// The only float-typed fused aggregate is AVG over an Int64
			// input (value-needing fused inputs are always Int64).
			if s.Func == expr.AggAvg && t.counts[gi] > 0 {
				oc.F[gi] = float64(t.isums[o]) / float64(t.counts[gi])
			}
		}
		out.Cols = append(out.Cols, oc)
	}
	return out
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
// Fused probe→aggregate
// ---------------------------------------------------------------------------

// fusedProbeAggPlan is a resolved, eligible Join+HashAgg fusion: the
// join's shard probe source plus, for the group key and every aggregate,
// which side's column it reads.
type fusedProbeAggPlan struct {
	join  *Join
	probe *shardProbe
	fusedAggOut
	group probeAggInput
	aggs  []probeAggInput
	// wins are the distinct probe-side columns the fold reads, each
	// streamed into one window per morsel.
	wins []*colstore.IntColumn
}

// probeAggInput locates one fold input: a probe-side window (index into
// fusedProbeAggPlan.wins) or a build-relation column, -1 where absent.
// Neither set means no value is read (global group, COUNT).
type probeAggInput struct{ win, build int }

// fusedProbeAggPlan reports how (and whether) this HashAgg can take its
// child join's matches straight into partial aggregates.  One more row of
// the one eligibility table:
//
//	child        a *Join (under the planner's Materialize or not) whose
//	             probe side fuses (shardProbe) and whose build side is a
//	             *Scan emitting a key of the probe key's type
//	GROUP BY     none, or one column of either side: BIGINT, or a string
//	             (a probe-side dictionary code, a build-side string
//	             resolved to one int64 id per build row)
//	aggregates   COUNT(*), COUNT(col) of a join output column, or
//	             SUM/MIN/MAX/AVG of an Int64 column of either side
//
// Columns resolve by name against the join's output schema, exactly as
// the generic HashAgg would find them in the joined relation.  Every input
// is static — no row count, no snapshot — so EXPLAIN and Run cannot
// disagree.  Anything else returns nil and the join emits pairs for the
// generic HashAgg.
func (a *HashAgg) fusedProbeAggPlan() *fusedProbeAggPlan {
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
	pa := &fusedProbeAggPlan{join: j, probe: fp, group: probeAggInput{-1, -1}}
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
			ints, pa.groupDict = c.CodeColumn(), c.Dict()
		default:
			return in, false // float inputs keep the generic path
		}
		if in.win = slices.Index(pa.wins, ints); in.win < 0 {
			in.win = len(pa.wins)
			pa.wins = append(pa.wins, ints)
		}
		return in, true
	}
	if len(a.GroupBy) == 1 {
		o := find(a.GroupBy[0])
		if pa.group, ok = resolve(o, true); !ok {
			return nil
		}
		pa.groupName, pa.groupType = schema.Cols[o].Name, schema.Cols[o].Type
	}
	pa.aggs = make([]probeAggInput, len(a.Aggs))
	pa.intIn = make([]bool, len(a.Aggs))
	for i, spec := range a.Aggs {
		pa.aggs[i] = probeAggInput{-1, -1}
		if spec.Func == expr.AggCount {
			if spec.Col != "" && find(spec.Col) < 0 {
				return nil // COUNT(col) on a column the join doesn't emit
			}
			continue
		}
		if pa.aggs[i], ok = resolve(find(spec.Col), false); !ok {
			return nil
		}
		pa.intIn[i] = true
	}
	return pa
}

// probeFold is the aggregate sink of one probe morsel: every match
// (window-local probe row i, build row r) folds into the partial table t.
// The build-side columns are shared by all morsels; the windows and the
// slot memo are this morsel's, bound from worker scratch.
type probeFold struct {
	pa         *fusedProbeAggPlan
	t          *fusedAggTable
	buildGroup []int64   // per build row: its group key (build-side groups)
	buildVals  [][]int64 // per aggregate: its build-side input column
	groupWin   []int64   // probe-side group keys of the window
	aggWin     [][]int64 // per aggregate: its probe-side input window
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
	pa := f.pa
	for len(sc.wins) < len(pa.wins) {
		sc.wins = append(sc.wins, nil)
	}
	for k, c := range pa.wins {
		w.Add(streamWindow(c, false, rows, lo, hi, dense, window(&sc.wins[k], hi-lo)))
	}
	if pa.group.win >= 0 {
		f.groupWin = sc.wins[pa.group.win]
	}
	sc.aggWin = sc.aggWin[:0]
	for _, in := range pa.aggs {
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
		g = t.slot(key)
	} else if g = f.idSlot[key] - 1; g < 0 {
		g = t.slot(key)
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
// rows and fusedAggMorsel's fold budget, plus one cache-resident touch
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
		TuplesOut:    uint64(len(f.t.keys)),
		Instructions: matches * uint64(4+2*len(f.pa.aggs)),
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

// runFusedProbeAgg is the join with the fold sink: the join's build side
// runs and is hashed as ever (Join.build), then each probe morsel folds
// its matches into a partial table and the partials merge in morsel order
// exactly as runFusedAgg merges them — no pair list, no gathered join
// relation, no string-keyed aggTable.
func (a *HashAgg) runFusedProbeAgg(ctx *Ctx, pa *fusedProbeAggPlan) (*Relation, error) {
	jr, err := pa.join.build(ctx, pa.probe)
	if err != nil {
		return nil, err
	}
	right := jr.right
	out := pa.fusedAggOut
	var buildGroup []int64
	if pa.group.build >= 0 {
		var gw energy.Counters
		buildGroup, out.groupDict, gw = buildGroupKeys(&right.Cols[pa.group.build])
		if !gw.IsZero() {
			ctx.Charge(a.Label()+" [group ids]", len(out.groupDict), gw)
		}
	}
	buildVals := make([][]int64, len(pa.aggs))
	for ai, in := range pa.aggs {
		if in.build >= 0 {
			buildVals[ai] = right.Cols[in.build].I
		}
	}

	nids := len(out.groupDict) // a string group's keys are dictionary ids
	if len(a.GroupBy) == 0 {
		nids = 1 // the global group's one key, 0
	}

	outs, qw, err := jr.probe(ctx, &probeFold{pa: pa, buildGroup: buildGroup, buildVals: buildVals, nids: nids})
	if err != nil {
		return nil, err
	}
	partials := make([]*fusedAggTable, len(outs))
	for m := range outs {
		partials[m] = outs[m].agg
	}
	final, partialGroups := mergePartials(len(a.Aggs), false, partials)
	ctx.Trace(a.Label()+" [fused probe→agg]", len(final.keys), qw)
	chargeAggMerge(ctx, len(partials), partialGroups, len(final.keys), energy.Counters{})
	return a.buildFusedOutput(&out, final), nil
}

// ---------------------------------------------------------------------------
// Planner mirrors
// ---------------------------------------------------------------------------

// fusion implements fuser: which of the two aggregate fusions, if any.
func (a *HashAgg) fusion() string {
	switch {
	case a.fusedAggPlan() != nil:
		return "fused"
	case a.fusedProbeAggPlan() != nil:
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

// FusedAggEligible reports whether HashAgg{Child: scan, GroupBy, Aggs}
// would take the fused filter→aggregate path — the planner's pricing
// mirror of fusedAggPlan.
func FusedAggEligible(scan *Scan, groupBy []string, aggs []expr.AggSpec) bool {
	a := &HashAgg{Child: scan, GroupBy: groupBy, Aggs: aggs}
	return a.fusedAggPlan() != nil
}

// FusedProbeEligible reports whether a Join probing scan on leftKey
// fuses its probe feed — the planner's pricing mirror of shardProbe.
func FusedProbeEligible(scan *Scan, leftKey string) bool {
	j := &Join{Left: scan, LeftKey: leftKey}
	return j.shardProbe() != nil
}

// FusedProbeAggEligible reports whether HashAgg{Child: child, GroupBy,
// Aggs} folds its child join's matches straight into partial aggregates
// — the planner's pricing mirror of fusedProbeAggPlan.
func FusedProbeAggEligible(child Node, groupBy []string, aggs []expr.AggSpec) bool {
	a := &HashAgg{Child: child, GroupBy: groupBy, Aggs: aggs}
	return a.fusedProbeAggPlan() != nil
}
