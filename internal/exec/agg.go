package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/num"
)

// HashAgg groups by zero or more columns and computes aggregates.  With no
// group-by columns it produces a single global row (none over an empty
// input).
//
// Every aggregation is the same pipeline, whatever its size or child:
//
//	feeder   where the rows come from (feeder picks one): the morsels of a
//	         bound scan, folded straight off the compressed
//	         segments (fused.go's scanFeed); the matches of a fused join
//	         probe (probeFeed); or row windows of the child's materialized
//	         relation (relFeed, below).
//	partial  one groupTable per morsel of the feeder's grid.
//	merge    mergeFrom, in morsel order; a lone partial is the
//	         result and nothing is merged or charged for merging.
//	output   buildOutput, decoding DOUBLE sums and DOUBLE MIN/MAX keys
//	         once per output group; a string key leaves as its code beside
//	         the table's dictionary, decoded only where it is rendered.
//
// The grid and the merge order are fixed by the input alone — never by
// the worker count — so the output bytes and the charged counters are
// identical at every degree of parallelism; and every accumulator is
// order-free, so the output bytes are the same on every feeder as well.
type HashAgg struct {
	Child   Node
	GroupBy []string
	Aggs    []expr.AggSpec
}

// Label implements Node.
func (a *HashAgg) Label() string {
	parts := slices.Clone(a.GroupBy)
	for _, s := range a.Aggs {
		parts = append(parts, s.String())
	}
	return "HashAgg(" + strings.Join(parts, ", ") + ")"
}

// Kids implements Node.
func (a *HashAgg) Kids() []Node { return []Node{a.Child} }

// aggShape is what a feeder resolved about an aggregation's columns: the
// type of every GROUP BY column and of every aggregate's value input
// (left BIGINT for COUNT, which reads none), and so every aggregate's
// accumulator (setKinds).
type aggShape struct {
	groupTypes []colstore.Type
	valTypes   []colstore.Type
	kinds      []accKind // per aggregate
	col        []int     // per aggregate: its column in ints or fsums (none for COUNT)
	// A new group's accumulator rows, one entry per int64 or num.FloatSum
	// accumulator: ints0 holds each int64's start (0 for a sum, MaxInt64
	// for MIN, MinInt64 for MAX), fsums0 empty FloatSums.  Either is empty
	// when no aggregate keeps an accumulator of its type.
	ints0  []int64
	fsums0 []num.FloatSum
	// keyLo and keySpan bound a one-part key, [keyLo, keyLo+keySpan),
	// when the feeder knows the bound (denseKey): every table of the
	// aggregation then slots a key at its offset in a direct array, with
	// no hash and no probe.  keySpan 0: slots are hashed.
	keyLo, keySpan int64
}

// denseKeys is the widest key bound slotted directly.
const denseKeys = 1 << 16

// denseKey sets the key bound of a one-part key whose values lie in
// [lo, hi], when it is narrow enough to slot directly.
func (s *aggShape) denseKey(lo, hi int64) {
	if hi >= lo && uint64(hi)-uint64(lo) < denseKeys {
		s.keyLo, s.keySpan = lo, hi-lo+1
	}
}

// accKind is the one accumulator an aggregate folds into, fixed by its
// function and its input's type.
type accKind uint8

const (
	accCount accKind = iota // COUNT: the group's count is the answer
	accISum                 // BIGINT SUM/AVG: a ring sum in ints
	accFSum                 // DOUBLE SUM/AVG: a num.FloatSum in fsums
	accMin                  // MIN: the least key in ints, a DOUBLE's its num.MinMaxKey
	accMax                  // MAX: the greatest key in ints
)

// setKinds derives every aggregate's accumulator from its function and
// the resolved value types, gives it its column, and lays out the
// accumulator rows a group starts with.
func (s *aggShape) setKinds(aggs []expr.AggSpec) {
	s.kinds, s.col = make([]accKind, len(aggs)), make([]int, len(aggs))
	for i, spec := range aggs {
		k := [...]accKind{expr.AggSum: accISum, expr.AggAvg: accISum, expr.AggMin: accMin, expr.AggMax: accMax}[spec.Func]
		if k == accISum && s.valTypes[i] == colstore.Float64 {
			k = accFSum
		}
		switch s.kinds[i] = k; k {
		case accFSum:
			s.col[i], s.fsums0 = len(s.fsums0), append(s.fsums0, num.FloatSum{})
		case accISum, accMin, accMax:
			s.col[i], s.ints0 = len(s.ints0), append(s.ints0, [...]int64{accMin: math.MaxInt64, accMax: math.MinInt64}[k])
		}
	}
}

// acc is aggregate ai's accumulator for group g: its index in ints, or
// in fsums for a DOUBLE sum.
func (s *aggShape) acc(g, ai int) int {
	if s.kinds[ai] == accFSum {
		return g*len(s.fsums0) + s.col[ai]
	}
	return g*len(s.ints0) + s.col[ai]
}

// tablePool recycles group tables: a partial goes back once merged and
// the result once output, so a query allocates tables per worker, not
// per morsel.
var tablePool = sync.Pool{New: func() any { return new(groupTable) }}

// newTable returns an empty table of this shape whose string key parts
// decode through dicts (per key part; nil when there is none to share),
// on a released table's storage.
func (s *aggShape) newTable(dicts [][]string) *groupTable {
	t := tablePool.Get().(*groupTable)
	*t = groupTable{
		k:         len(s.groupTypes),
		sh:        s,
		slotKey:   t.slotKey,
		slotGroup: t.slotGroup,
		keys:      t.keys[:0],
		counts:    t.counts[:0],
		ints:      t.ints[:0],
		fsums:     t.fsums[:0],
		dicts:     sized(t.dicts, len(s.groupTypes)),
		key:       t.key,
	}
	if s.keySpan > 0 {
		t.slotGroup = sized(t.slotGroup, int(s.keySpan))
	} else {
		t.reindex(256)
	}
	copy(t.dicts, dicts)
	return t
}

// release hands t back to tablePool; nothing may use it afterwards.
func (t *groupTable) release() { tablePool.Put(t) }

// groupTable is one (partial) aggregation result — the one struct that
// holds aggregate accumulators.  A group key is a fixed-width tuple of k
// int64 parts, one per GROUP BY column (none for the global group): a
// BIGINT as is, a DOUBLE as its bits (floatKey), a string as an id into
// dicts[part].  It is an open-addressing table with flat group-major
// arrays — no Go map, no string keys, no per-group heap object.
// slotGroup stores group index + 1 so a freshly made table is all-empty
// without a fill pass.
//
// Each aggregate keeps only the state its function needs (accKind): a
// COUNT none beyond the group count, a BIGINT SUM/AVG, a MIN or a MAX one
// int64 column of ints, a DOUBLE SUM/AVG one num.FloatSum column of fsums.
// An array no aggregate needs stays empty and is never grown or merged
// (slot, mergeFrom).  Rows arrive resolved: a feeder turns a morsel's
// rows into group ids, then fold counts them in one loop and folds each
// aggregate in one loop of its kind.
//
// Every accumulator is order-free, so any morsel decomposition, merge
// order or worker count gives the same bits: a BIGINT sum is
// ring arithmetic in int64 (the run-at-a-time closed form included), a
// DOUBLE sum a num.FloatSum, and MIN/MAX keep int64 keys — a BIGINT as is, a
// DOUBLE as its num.MinMaxKey.
//
//lint:hotpath
type groupTable struct {
	k         int
	sh        *aggShape // the accumulator kinds and columns, a new group's rows
	mask      uint64
	slotKey   []int64        // the key's first part (0 when k is 0): a one-column probe never leaves the slot arrays
	slotGroup []int32        // group index + 1; 0 = empty
	keys      []int64        // group-major [group*k + part], groups in first-seen order
	counts    []int64        // per group
	ints      []int64        // group-major, len(sh.ints0) per group (sh.acc)
	fsums     []num.FloatSum // group-major, len(sh.fsums0) per group
	// dicts[part] decodes a string part's ids: the dictionary of the
	// column its codes came from; nil for a BIGINT or DOUBLE part.
	dicts [][]string
	key   []int64 // mergeFrom's key buffer
}

func (t *groupTable) groups() int { return len(t.counts) }

// hashKey hashes a key tuple; a one-part key hashes as its value alone.
func hashKey(k0 int64, rest []int64) uint64 {
	h := mix64(uint64(k0))
	for _, p := range rest {
		h = mix64(h ^ uint64(p))
	}
	return h
}

// splitKey splits a key tuple into slot's arguments.
func splitKey(key []int64) (k0 int64, rest []int64) {
	if len(key) == 0 {
		return 0, nil
	}
	return key[0], key[1:]
}

// floatKey is a DOUBLE group value's key part: its bits, so −0 and +0
// stay apart, with every NaN folded onto one so NaNs form one group.
func floatKey(f float64) int64 {
	if f != f {
		f = math.NaN()
	}
	return int64(math.Float64bits(f))
}

// slot returns the group index of key (k0, rest...), inserting it (in
// first-seen order) on first sight.  Under a key bound (aggShape.keySpan)
// the slot is the key's offset.
func (t *groupTable) slot(k0 int64, rest []int64) int32 {
	if t.sh.keySpan > 0 {
		s := &t.slotGroup[k0-t.sh.keyLo]
		if *s == 0 {
			*s = t.add(k0, rest) + 1
		}
		return *s - 1
	}
	i := hashKey(k0, rest) & t.mask
	for {
		g := int(t.slotGroup[i])
		if g == 0 {
			break
		}
		if t.slotKey[i] == k0 && (len(rest) == 0 || slices.Equal(t.keys[(g-1)*t.k+1:g*t.k], rest)) {
			return int32(g - 1)
		}
		i = (i + 1) & t.mask
	}
	t.slotKey[i] = k0
	g := t.add(k0, rest)
	t.slotGroup[i] = g + 1
	if uint64(g+1)*2 >= t.mask+1 {
		t.reindex((t.mask + 1) * 2)
	}
	return g
}

// add appends group (k0, rest...), its count and its accumulators'
// starts, and returns its index.
func (t *groupTable) add(k0 int64, rest []int64) int32 {
	if t.k > 0 {
		t.keys = append(append(t.keys, k0), rest...)
	}
	t.counts = append(t.counts, 0)
	t.ints = append(t.ints, t.sh.ints0...)
	t.fsums = append(t.fsums, t.sh.fsums0...)
	return int32(len(t.counts) - 1)
}

// reindex rebuilds the slot arrays, size slots wide, from the group keys.
func (t *groupTable) reindex(size uint64) {
	t.mask = size - 1
	t.slotKey = sized(t.slotKey, int(size))
	t.slotGroup = sized(t.slotGroup, int(size))
	for g := range t.counts {
		k0, rest := splitKey(t.keys[g*t.k : (g+1)*t.k])
		i := hashKey(k0, rest) & t.mask
		for t.slotGroup[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slotKey[i] = k0
		t.slotGroup[i] = int32(g + 1)
	}
}

// foldIn is one aggregate's input to a fold: the value of the fold's j-th
// row is ints[at[j]] (BIGINT) or floats[at[j]] (DOUBLE).  Neither is set
// for a COUNT, or for an input its feeder folds in closed form (addN).
type foldIn struct {
	ints   []int64
	floats []float64
	at     []int32
}

// resolve writes the group of each of rows into gids, inserting groups in
// row order: row r's key part p is parts[p][r].  The global group (k = 0)
// is group 0 of every row, which gids already hold: callers size it
// zeroed (sized).
func (t *groupTable) resolve(parts [][]int64, rows, gids []int32) {
	if t.k == 0 && len(rows) > 0 {
		t.slot(0, nil)
		return
	}
	t.key = sized(t.key, t.k) // mergeFrom's buffer, free while a partial folds
	for j, r := range rows {
		for p, part := range parts {
			t.key[p] = part[r]
		}
		gids[j] = t.slot(splitKey(t.key))
	}
}

// fold folds one morsel's resolved rows into the table — the one fold.
// gids[j] is the group of the fold's j-th row and ins[ai] aggregate ai's
// input.  The counts come first, in one loop; then each aggregate folds in
// one loop of its kind (foldAgg), touching only its own accumulator.
func (t *groupTable) fold(gids []int32, ins []foldIn) {
	for _, g := range gids {
		t.counts[g]++
	}
	for ai, in := range ins {
		t.foldAgg(ai, gids, in)
	}
}

// foldAgg is fold's loop for aggregate ai: the values of in's first
// len(gids) rows into the groups gids names.
func (t *groupTable) foldAgg(ai int, gids []int32, in foldIn) {
	if in.ints == nil && in.floats == nil {
		return
	}
	at, kind, c := in.at[:len(gids)], t.sh.kinds[ai], t.sh.col[ai]
	switch w := len(t.sh.ints0); {
	case kind == accISum:
		for j, g := range gids {
			t.ints[int(g)*w+c] += in.ints[at[j]]
		}
	case kind == accFSum:
		w = len(t.sh.fsums0)
		for j, g := range gids {
			t.fsums[int(g)*w+c].Add(in.floats[at[j]])
		}
	case in.floats != nil: // a DOUBLE MIN/MAX, by its num.MinMaxKey
		for j, g := range gids {
			t.minMax(kind, int(g)*w+c, num.MinMaxKey(in.floats[at[j]]))
		}
	default:
		for j, g := range gids {
			t.minMax(kind, int(g)*w+c, in.ints[at[j]])
		}
	}
}

// minMax folds key v into ints[o], a MIN's or a MAX's accumulator.
func (t *groupTable) minMax(kind accKind, o int, v int64) {
	if kind == accMin {
		t.ints[o] = min(t.ints[o], v)
	} else {
		t.ints[o] = max(t.ints[o], v)
	}
}

// addN folds n occurrences of int64 value v into aggregate ai of group g
// — the run-at-a-time closed form: a sum adds n*v, MIN and MAX see v
// once.  Sums wrap modulo 2^64 and are not trapped; because +, * and the
// merge's + are all operations of that one ring, an overflowing SUM is the
// same wrapped value on every path — row-at-a-time, n*v, partial merge,
// probe fold — at every DOP (TestIntSumOverflowWrapsIdentically).
func (t *groupTable) addN(g int32, ai int, v, n int64) {
	switch o, kind := t.sh.acc(int(g), ai), t.sh.kinds[ai]; kind {
	case accISum:
		t.ints[o] = num.RingAdd(t.ints[o], v, n)
	case accMin, accMax:
		t.minMax(kind, o, v)
	}
}

// foldSynopsis folds groups [from, to) of a segment synopsis into the
// table — the synopsis feeder: each group, in its order of first
// occurrence, adds its count and, per aggregate, the accumulator of the
// aggregate's input column cols[ai] (a schema index) — into the global
// group when the table has no key.  That is what a fold of the group's
// rows adds, group order included, since every accumulator is
// order-free.
func (t *groupTable) foldSynopsis(syn *colstore.Synopsis, cols []int, from, to int) {
	for g := from; g < to; g++ {
		key := syn.Keys[g]
		if t.k == 0 {
			key = 0
		}
		gi := int(t.slot(key, nil))
		t.counts[gi] += syn.Counts[g]
		for ai, kind := range t.sh.kinds {
			switch o, ci := t.sh.acc(gi, ai), cols[ai]; kind {
			case accISum:
				t.ints[o] = num.RingAdd(t.ints[o], syn.Sums[ci][g], 1)
			case accFSum:
				t.fsums[o].Merge(syn.FSums[ci][g])
			case accMin:
				t.minMax(kind, o, syn.Mins[ci][g])
			case accMax:
				t.minMax(kind, o, syn.Maxs[ci][g])
			}
		}
	}
}

// internID returns s's id in *dict, appending it on first sight; ids is
// the dictionary's inverse.
func internID(ids map[string]int64, dict *[]string, s string) int64 {
	id, ok := ids[s]
	if !ok {
		id = int64(len(*dict))
		ids[s] = id
		*dict = append(*dict, s)
	}
	return id
}

// mergeFrom folds the partial src into t — the one merge.  Callers merge
// in morsel order, so t's first-seen group order is the row order of
// first selected occurrence; the accumulators are order-free.  Every
// partial of one aggregation keys its string parts by the same
// dictionary (its feeder's), which t takes from the first partial it
// merges.
func (t *groupTable) mergeFrom(src *groupTable) {
	if t.groups() == 0 {
		copy(t.dicts, src.dicts)
	}
	t.key = sized(t.key, t.k)
	key := t.key
	for gi := range src.counts {
		copy(key, src.keys[gi*t.k:])
		g := t.slot(splitKey(key))
		t.counts[g] += src.counts[gi]
		for a, kind := range t.sh.kinds {
			if so := t.sh.acc(gi, a); kind == accFSum {
				t.fsums[t.sh.acc(int(g), a)].Merge(src.fsums[so])
			} else if kind != accCount {
				t.addN(g, a, src.ints[so], 1)
			}
		}
	}
}

// aggFeeder is where an aggregation's rows come from.  The driver crosses
// it once per query; each feeder crosses into its table once per morsel.
type aggFeeder interface {
	// fold cuts the feeder's rows into the morsel grid, folds every morsel
	// into a partial table, and returns the partials in morsel order with
	// the fold's work and the label it is traced under.
	fold(ctx *Ctx) (partials []*groupTable, work energy.Counters, label string, err error)
}

// feeder picks where the rows come from — the one selection, made from
// what the plan shows and never from a row count or an option:
//
//	scan windows     the child is a *Scan and no GROUP BY column
//	                 is a DOUBLE (fused.go)
//	probe matches    the child is a join whose probe side fuses (fused.go)
//	relation windows anything else: the child is run to a relation
//
// A DOUBLE sum is a num.FloatSum, a function of the multiset of its inputs, so
// every feeder, grid and layout gives the same bits.
func (a *HashAgg) feeder(ctx *Ctx) (aggFeeder, *aggShape, error) {
	if sf := a.scanFeed(); sf != nil {
		return sf, &sf.aggShape, nil
	}
	if pf := a.probeFeed(); pf != nil {
		return pf, &pf.aggShape, nil
	}
	in, err := a.Child.Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	rf, err := a.relFeed(in)
	if err != nil {
		return nil, nil, err
	}
	return rf, &rf.aggShape, nil
}

// Run implements Node: resolve the feeder, fold, merge the partials in
// morsel order (a lone partial is the result as it stands), build the
// output.
func (a *HashAgg) Run(ctx *Ctx) (*Relation, error) {
	feed, shape, err := a.feeder(ctx)
	if err != nil {
		return nil, err
	}
	partials, work, label, err := feed.fold(ctx)
	if err != nil {
		return nil, err
	}
	var t *groupTable
	if len(partials) == 1 {
		t = partials[0]
	} else {
		t = shape.newTable(nil)
		for _, p := range partials {
			t.mergeFrom(p)
		}
	}
	defer t.release()
	var partialGroups uint64
	for _, p := range partials {
		partialGroups += uint64(p.groups())
		if p != t {
			p.release()
		}
	}
	ctx.Trace(label, t.groups(), work)
	if len(partials) > 1 {
		// The coordinator's merge is priced by the morsel grid's
		// partial-group count.
		ctx.Charge(fmt.Sprintf("agg-merge(%d partials)", len(partials)), t.groups(), mergeWork(partialGroups, uint64(t.groups())))
	}
	return a.buildOutput(shape, t), nil
}

// mergeWork prices the coordinator's merge of partial tables holding
// partialGroups groups in all into groups groups — the one agg-merge
// formula, which Run bills and FusedAggWork prices.
func mergeWork(partialGroups, groups uint64) energy.Counters {
	return energy.Counters{
		TuplesIn:     partialGroups,
		TuplesOut:    groups,
		Instructions: partialGroups * 12,
		CacheMisses:  partialGroups / 4,
	}
}

// buildOutput turns the final table into the result relation — the one
// output builder.  A string key part is emitted as its codes beside the
// part's dictionary, not decoded.
func (a *HashAgg) buildOutput(shape *aggShape, t *groupTable) *Relation {
	n := t.groups()
	out := &Relation{N: n}
	for p, name := range a.GroupBy {
		oc := Col{Name: name, Type: shape.groupTypes[p]}
		switch oc.Type {
		case colstore.Float64:
			oc.F = make([]float64, n)
			for g := range oc.F {
				oc.F[g] = math.Float64frombits(uint64(t.keys[g*t.k+p]))
			}
		default: // a BIGINT as is; a string as codes into the part's dictionary (nil for a BIGINT)
			oc.I, oc.Dict = make([]int64, n), t.dicts[p]
			for g := range oc.I {
				oc.I[g] = t.keys[g*t.k+p]
			}
		}
		out.Cols = append(out.Cols, oc)
	}
	for ai, s := range a.Aggs {
		intIn := shape.valTypes[ai] == colstore.Int64
		oc := Col{Name: aggOutName(s), Type: colstore.Float64}
		if s.Func == expr.AggCount || (intIn && s.Func != expr.AggAvg) {
			// Integer aggregates come straight from the exact int64
			// accumulators — no float round-trip.
			oc.Type = colstore.Int64
			oc.I = make([]int64, n)
		} else {
			oc.F = make([]float64, n)
		}
		for g := 0; g < n; g++ {
			o := shape.acc(g, ai)
			switch {
			case s.Func == expr.AggCount:
				oc.I[g] = t.counts[g]
			case s.Func == expr.AggAvg && intIn:
				oc.F[g] = float64(t.ints[o]) / float64(t.counts[g])
			case s.Func == expr.AggAvg:
				oc.F[g] = t.fsums[o].Value() / float64(t.counts[g])
			case intIn:
				oc.I[g] = t.ints[o]
			case s.Func == expr.AggSum:
				oc.F[g] = t.fsums[o].Value()
			default: // a DOUBLE MIN/MAX key, decoded once per output group
				oc.F[g] = num.FromMinMaxKey(t.ints[o])
			}
		}
		out.Cols = append(out.Cols, oc)
	}
	return out
}

// aggOutName derives an aggregate's output column name.
func aggOutName(s expr.AggSpec) string {
	if s.As != "" {
		return s.As
	}
	name := strings.ToLower(s.Func.String())
	if s.Col != "" {
		name += "_" + s.Col
	}
	return name
}

// ---------------------------------------------------------------------------
// The relation feeder
// ---------------------------------------------------------------------------

// relFeed feeds row windows of the child's materialized relation: the
// feeder of every child that is not a fusable scan or join (see feeder).
type relFeed struct {
	a     *HashAgg
	in    *Relation
	parts [][]int64  // per GROUP BY column, every row's key part
	dicts [][]string // per GROUP BY column, a string part's dictionary
	ins   []foldIn   // per aggregate, its input column; none for COUNT
	aggShape
}

// relFeed resolves the group-by and aggregate input columns against the
// child relation.  A key part is a BIGINT column or a string column's
// codes as they are, a DOUBLE column's floatKeys.
func (a *HashAgg) relFeed(in *Relation) (*relFeed, error) {
	rf := &relFeed{a: a, in: in, ins: make([]foldIn, len(a.Aggs))}
	rf.groupTypes = make([]colstore.Type, len(a.GroupBy))
	rf.valTypes = make([]colstore.Type, len(a.Aggs))
	for i, g := range a.GroupBy {
		c, err := in.Col(g)
		if err != nil {
			return nil, err
		}
		part := c.I
		if c.Type == colstore.Float64 {
			part = make([]int64, in.N)
			for r, f := range c.F {
				part[r] = floatKey(f)
			}
		}
		rf.parts, rf.dicts, rf.groupTypes[i] = append(rf.parts, part), append(rf.dicts, c.Dict), c.Type
	}
	for i, s := range a.Aggs {
		if s.Func == expr.AggCount && s.Col == "" {
			continue // COUNT(*)
		}
		c, err := in.Col(s.Col)
		if err != nil {
			return nil, err
		}
		if c.Type == colstore.String && s.Func != expr.AggCount {
			return nil, fmt.Errorf("exec: cannot %s a VARCHAR column", s.Func)
		}
		if s.Func == expr.AggCount {
			continue // COUNT(col): existence-checked only, no values read
		}
		rf.ins[i], rf.valTypes[i] = foldIn{ints: c.I, floats: c.F}, c.Type
	}
	rf.setKinds(a.Aggs)
	return rf, nil
}

// fold implements aggFeeder: the relation's morsel grid.
func (rf *relFeed) fold(ctx *Ctx) ([]*groupTable, energy.Counters, string, error) {
	partials, work := runMorsels(ctx, rf.in.N, func(_, lo, hi int) (*groupTable, energy.Counters) {
		return rf.morsel(lo, hi)
	})
	if ctx.Canceled() {
		return nil, work, "", ErrCanceled
	}
	label := rf.a.Label()
	if len(partials) > 1 {
		label += " [parallel]"
	}
	return partials, work, label, nil
}

// morsel folds rows [lo, hi) of the relation into a partial table: every
// row resolves to its group id, then the one fold.
func (rf *relFeed) morsel(lo, hi int) (*groupTable, energy.Counters) {
	sc := scratchPool.Get().(*morselScratch)
	defer scratchPool.Put(sc)
	t := rf.newTable(rf.dicts)
	sc.rows, sc.gids = sc.rows[:0], sized(sc.gids, hi-lo)
	for r := lo; r < hi; r++ {
		sc.rows = append(sc.rows, int32(r))
	}
	t.resolve(rf.parts, sc.rows, sc.gids)
	sc.ins = append(sc.ins[:0], rf.ins...)
	for ai := range sc.ins {
		sc.ins[ai].at = sc.rows
	}
	t.fold(sc.gids, sc.ins)
	return t, rf.a.rangeWork(lo, hi, t.groups())
}

// rangeWork prices aggregating rows [lo, hi) of a relation into a partial
// table of groups result groups — the one relation-feed formula.  It
// depends only on the row window and its group count, so the fixed morsel
// grid charges identically at any degree of parallelism.
func (a *HashAgg) rangeWork(lo, hi, groups int) energy.Counters {
	n := uint64(hi - lo)
	return energy.Counters{
		TuplesIn:      n,
		TuplesOut:     uint64(groups),
		Instructions:  n * uint64(10+4*len(a.Aggs)),
		CacheMisses:   n, // one hash probe per row
		BytesReadDRAM: n * 8 * uint64(len(a.GroupBy)+len(a.Aggs)),
	}
}
