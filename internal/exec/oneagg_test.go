package exec

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Tests that pin the one aggregate: there is one aggregation table, so the
// relation a HashAgg returns equals the map oracle (agg_oracle_test.go)
// for every key shape, value input, size, feeder and layout; a DOUBLE sum
// is the same bits whatever order its rows arrive in; and an overflowing
// BIGINT sum wraps to the same value on every path.

// matrixTable is one table of the matrix plus what loaded it: its logical
// rows and the base row count.
type matrixTable struct {
	flat *colstore.Table
	row  func(i int) []any
	base int
}

// newMatrixTable loads rows row(0..base-1) into a table and seals it.
func newMatrixTable(t testing.TB, schema colstore.Schema, row func(i int) []any, base int) *matrixTable {
	t.Helper()
	flat := colstore.NewTable("t", schema)
	rows := make([][]any, base)
	for i := range rows {
		rows[i] = row(i)
	}
	w := flat.Writer()
	for ci, d := range schema {
		switch d.Type {
		case colstore.Int64:
			vs := make([]int64, base)
			for i, r := range rows {
				vs[i] = r[ci].(int64)
			}
			w.Int64(d.Name, vs...)
		case colstore.Float64:
			vs := make([]float64, base)
			for i, r := range rows {
				vs[i] = r[ci].(float64)
			}
			w.Float64(d.Name, vs...)
		default:
			vs := make([]string, base)
			for i, r := range rows {
				vs[i] = r[ci].(string)
			}
			w.String(d.Name, vs...)
		}
	}
	must(t, w.Close())
	mustMerge(t, flat)
	return &matrixTable{flat: flat, row: row, base: base}
}

// mutate inserts rows row(base..base+ins-1) at commit timestamps 1..ins,
// then tombstones the logical rows listed in del (an index below base is
// a base row, the rest delta rows).
func (tw *matrixTable) mutate(t testing.TB, ins int, del []int) {
	t.Helper()
	ids := make([]int64, ins)
	lsn, ts := uint64(1), int64(0)
	for j := 0; j < ins; j++ {
		ts++
		id, err := tw.flat.ApplyInsert(ts, lsn, tw.row(tw.base+j)...)
		must(t, err)
		ids[j] = id
		lsn++
	}
	for _, r := range del {
		ts++
		if r < tw.base {
			must(t, tw.flat.ApplyDelete(ts, lsn, tw.flat.RowID(r)))
		} else {
			must(t, tw.flat.ApplyDelete(ts, lsn, ids[r-tw.base]))
		}
		lsn++
	}
}

var oneAggSchema = colstore.Schema{
	{Name: "ck", Type: colstore.Int64},
	{Name: "ik", Type: colstore.Int64},
	{Name: "sk", Type: colstore.String},
	{Name: "na", Type: colstore.String}, // na × nb: NUL-bearing pairs that
	{Name: "nb", Type: colstore.String}, // collide under a bare separator
	{Name: "fk", Type: colstore.Float64},
	{Name: "iv", Type: colstore.Int64},
	{Name: "fv", Type: colstore.Float64},
}

// oneAggRow is logical row i of the matrix table.  fk cycles through two
// NaNs of different payload, both zeros, an infinity and ordinary values;
// fv spreads over forty binary orders of magnitude, so a serial float sum's
// last bits depend on the order it was accumulated in — while every bit
// of every value stays within floatSum's window, so the exact sum is the
// answer.
func oneAggRow(i int) []any {
	fks := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Copysign(0, -1), 0,
		1.5, -2.25, math.Inf(1), 1e-300,
	}
	return []any{
		int64(i*7919) % (1 << 16),
		int64(i*31) % 97,
		workload.RegionNames[(i*13)%len(workload.RegionNames)],
		[]string{"a\x00", "a"}[i%2],
		[]string{"b", "\x00b"}[(i/2)%2],
		fks[(i*5)%len(fks)],
		int64(i*2654435761)%(1<<21) - 1<<20,
		math.Ldexp(float64((i*40503)%9973)+0.25, i%41-20),
	}
}

// Key shapes, value inputs and feeders of the matrix.
var (
	oneAggShapes = []struct {
		name    string
		groupBy []string
	}{
		{"global", nil},
		{"bigint", []string{"ik"}},
		{"string", []string{"sk"}},
		{"double", []string{"fk"}},
		{"bigint×string", []string{"ik", "sk"}},
		{"string×string-NUL", []string{"na", "nb"}},
		{"same-twice", []string{"ik", "ik"}},
	}
	oneAggValues = []struct {
		name string
		aggs []expr.AggSpec
	}{
		{"count-star", []expr.AggSpec{{Func: expr.AggCount}}},
		{"count-col", []expr.AggSpec{{Func: expr.AggCount, Col: "fv"}}},
		{"int", []expr.AggSpec{{Func: expr.AggSum, Col: "iv"}, {Func: expr.AggMin, Col: "iv"},
			{Func: expr.AggMax, Col: "iv"}, {Func: expr.AggAvg, Col: "iv"}}},
		{"float", []expr.AggSpec{{Func: expr.AggSum, Col: "fv"}, {Func: expr.AggMin, Col: "fv"},
			{Func: expr.AggMax, Col: "fv"}, {Func: expr.AggAvg, Col: "fv"}}},
		// Every accumulator kind in one table: MIN/MAX beside BIGINT and
		// DOUBLE SUM/AVG beside COUNT.
		{"mixed", []expr.AggSpec{{Func: expr.AggMin, Col: "fv"}, {Func: expr.AggSum, Col: "iv"},
			{Func: expr.AggCount}, {Func: expr.AggMax, Col: "iv"}, {Func: expr.AggAvg, Col: "fv"},
			{Func: expr.AggAvg, Col: "iv"}, {Func: expr.AggSum, Col: "fv"}}},
	}
	oneAggFeeders = []string{"scan", "opaque", "delta", "probe"}
)

// oneAggDim is the build side of the matrix's probe feeder: one row per
// ik value, so the join emits every scanned row once, unchanged.
func oneAggDim(t *testing.T) *colstore.Table {
	dim := colstore.NewTable("dim", colstore.Schema{{Name: "k", Type: colstore.Int64}})
	keys := make([]int64, 97)
	for i := range keys {
		keys[i] = int64(i)
	}
	must(t, dim.Writer().Int64("k", keys...).Close())
	mustMerge(t, dim)
	return dim
}

// sameAggRelation compares two aggregation results: schema and integers
// exactly, strings decoded (the two may carry different dictionaries),
// floats bit for bit (any two NaNs are equal).
func sameAggRelation(got, want *Relation) error {
	if got.N != want.N || len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.N, len(got.Cols), want.N, len(want.Cols))
	}
	for ci := range want.Cols {
		g, w := &got.Cols[ci], &want.Cols[ci]
		if g.Name != w.Name || g.Type != w.Type || g.Len() != w.Len() {
			return fmt.Errorf("column %d (%s) differs", ci, w.Name)
		}
		for i := 0; i < w.Len(); i++ {
			switch {
			case w.Type == colstore.Int64 && g.I[i] != w.I[i], w.Type == colstore.String && g.Str(i) != w.Str(i):
				return fmt.Errorf("column %s row %d differs", w.Name, i)
			case w.Type == colstore.Float64 && !sameBits(w.F[i], g.F[i]):
				return fmt.Errorf("column %s row %d: got %x (%g), want %x (%g)", w.Name, i,
					math.Float64bits(g.F[i]), g.F[i], math.Float64bits(w.F[i]), w.F[i])
			}
		}
	}
	return nil
}

// ranScanFed reports whether a run's trace holds a scan-fed fold.
func ranScanFed(ctx *Ctx) bool {
	return slices.ContainsFunc(ctx.OpReports, func(op OpReport) bool { return strings.Contains(op.Label, "[fused") })
}

// TestOneAggMatchesMapOracle: relation == the map oracle, bit for bit, and
// relation + Meter identical at DOP {1, 2, 8}, over key shape × value
// input × input rows straddling the two retired thresholds (2^16, the
// grid pitch, and 2^18, the old serial/parallel switch) × feeder ×
// layout.  The probe feeder joins the scan to a dimension that matches
// every row once: on the flat layout a BIGINT-only aggregation with at
// most one GROUP BY column folds the probe's matches, anything else runs
// the pair path into the relation feeder.  Under 2^16 and from 2^18
// relation rows — where the oracle reproduces the parent's merges — a
// relation-fed run also charges exactly the oracle's Meter.  Sizes 0 and
// 1 run the full cross product; each of the five large sizes runs a
// rotating slice, so every (key shape, value input, feeder) triple meets
// up to two large sizes, on alternate ones.
func TestOneAggMatchesMapOracle(t *testing.T) {
	sizes := []int{0, 1, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<18 - 1, 1 << 18}
	type oracleRun struct {
		rel *Relation
		ctx *Ctx
	}
	dim := oneAggDim(t)
	for si, n := range sizes {
		tw := newMatrixTable(t, oneAggSchema, oneAggRow, n)
		// One table per size serves both passes: sealed for the scan and
		// opaque feeders, then — min(n, 300) rows inserted and as many base
		// and delta rows tombstoned, so n rows stay visible — live.
		for _, live := range []bool{false, true} {
			if live {
				ins := min(n, 300)
				var del []int
				for j := 0; j < ins/30; j++ {
					del = append(del, n+j*10)
				}
				for i := 0; len(del) < ins; i++ {
					del = append(del, i*37)
				}
				tw.mutate(t, ins, del)
			}
			oracles := map[string]*oracleRun{} // the bare and the hidden scan share a run
			for shi, shape := range oneAggShapes {
				for vi, vals := range oneAggValues {
					for fi, feeder := range oneAggFeeders {
						{
							// A triple's two large sizes: any of the five, and another
							// of the three around 2^16 (a quarter the rows of the rest).
							triple := (shi*len(oneAggValues)+vi)*len(oneAggFeeders) + fi
							first, second := triple%5, triple/5%3
							if second == first {
								second = (second + 1) % 3
							}
							if large := si - 2; large >= 0 && (first != large && second != large || (triple+si)%2 != 0) {
								continue
							}
							if live != (feeder == "delta") {
								continue
							}
							src := tw.flat
							cols := slices.Clone(shape.groupBy)
							for _, spec := range vals.aggs {
								cols = append(cols, spec.Col)
							}
							if feeder == "probe" {
								cols = append(cols, "ik") // the join key
							}
							var sel []string
							for _, c := range append(cols, "ck") {
								if c != "" && !slices.Contains(sel, c) && (c != "ck" || sel == nil) {
									sel = append(sel, c)
								}
							}
							input := func() Node {
								var in Node = &Scan{Source: src, Select: sel}
								if feeder == "probe" {
									in = &Join{Left: in, Right: &Scan{Source: dim}, LeftKey: "ik", RightKey: "k"}
								}
								return in
							}
							child := input()
							if feeder == "opaque" {
								child = opaque(child)
							}
							agg := &HashAgg{Child: child, GroupBy: shape.groupBy, Aggs: vals.aggs}
							name := fmt.Sprintf("n=%d/%s/%s/%s", n, shape.name, vals.name, feeder)

							okey := fmt.Sprint(shape.name, vals.name, feeder == "probe")
							if oracles[okey] == nil {
								rel, ctx := runPlan(t, &mapAgg{Child: opaque(input()), GroupBy: shape.groupBy, Aggs: vals.aggs}, 1)
								oracles[okey] = &oracleRun{rel, ctx}
							}
							want, octx := oracles[okey].rel, oracles[okey].ctx
							inBand := n >= 1<<16 && n < 1<<18
							wantScanFed := feeder != "opaque" && feeder != "probe" && shape.name != "double"
							wantProbeFed := feeder == "probe" && len(shape.groupBy) <= 1 && shape.name != "double" &&
								!slices.ContainsFunc(vals.aggs, func(s expr.AggSpec) bool { return s.Func != expr.AggCount && s.Col == "fv" })
							if got := agg.fusion(); (got == "fused probe→agg") != wantProbeFed {
								t.Fatalf("%s: EXPLAIN %q, want probe-fed=%v", name, got, wantProbeFed)
							}
							var base *Ctx
							for _, dop := range []int{1, 2, 8} {
								got, ctx := runPlan(t, agg, dop)
								if err := sameAggRelation(got, want); err != nil {
									t.Fatalf("%s dop=%d: diverged from the map oracle: %v", name, dop, err)
								}
								if fused := ranScanFed(ctx); feeder != "probe" && ((agg.fusion() == "fused") != wantScanFed || (n > 0 && fused != wantScanFed)) {
									t.Fatalf("%s dop=%d: scan-fed=%v (EXPLAIN %q), want %v", name, dop, fused, agg.fusion(), wantScanFed)
								}
								if base == nil {
									base = ctx
								} else if ctx.Meter.Snapshot() != base.Meter.Snapshot() {
									t.Fatalf("%s dop=%d: counters differ from DOP 1:\n%+v\n%+v", name, dop, ctx.Meter.Snapshot(), base.Meter.Snapshot())
								}
							}
							if feeder == "opaque" && !inBand && base.Meter.Snapshot() != octx.Meter.Snapshot() {
								t.Fatalf("%s: relation-fed Meter moved off the parent's:\n%+v\n%+v", name, base.Meter.Snapshot(), octx.Meter.Snapshot())
							}
							if groups := want.N; (n > 0) != (groups > 0) || (shape.name == "string×string-NUL" && n > 3 && groups != 4) {
								t.Fatalf("%s: degenerate cell, %d groups", name, groups)
							}
						}
					}
				}
			}
		}
	}
}

// gridSum adds xs serially within each chunk of pitch values, the chunk
// sums then added in order — the relation feeder's order before DOUBLE
// sums became order-free.
func gridSum(xs []float64, pitch int) float64 {
	var total float64
	for lo := 0; lo < len(xs); lo += pitch {
		var part float64
		for _, x := range xs[lo:min(lo+pitch, len(xs))] {
			part += x
		}
		total += part
	}
	return total
}

// TestFloatSumIsPermutationInvariant pins what a DOUBLE SUM is: the exact
// sum of the multiset of its inputs, rounded once.  The column is built so
// that a serial sum, a sum on the 64 Ki grid of the filtered relation and
// a sum on the grid of physical table morsels are three different
// float64 values; the engine returns the math/big sum instead, with the
// same bits for the rows in table order and shuffled, at every DOP, over a live delta and after merging
// it, scan-fed, relation-fed, and over a join on an int key (whose
// DOUBLE input reaches the relation feeder through the pair path).
func TestFloatSumIsPermutationInvariant(t *testing.T) {
	schema := colstore.Schema{
		{Name: "ck", Type: colstore.Int64},
		{Name: "keep", Type: colstore.Int64},
		{Name: "g", Type: colstore.Int64},
		{Name: "x", Type: colstore.Float64},
	}
	row := func(i int) []any {
		return []any{int64(i*7919) % (1 << 16), int64(i % 2), int64(i % 7), math.Ldexp(float64((i*40503)%9973)+0.25, i%47-23)}
	}
	const base, ins = 3*MorselRows + 1000, 400
	var del []int
	for i := 0; i < 50; i++ {
		del = append(del, i*4001+1, base+i*8+1) // odd rows: kept by the filter
	}
	// The shuffled twin holds the same logical rows — base rows and
	// inserts each permuted among themselves — and deletes the same ones.
	rng := workload.NewRNG(23)
	perm := make([]int, base+ins)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(base, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	rng.Shuffle(ins, func(i, j int) { perm[base+i], perm[base+j] = perm[base+j], perm[base+i] })
	at := make([]int, len(perm))
	for pos, r := range perm {
		at[r] = pos
	}
	shuffledDel := make([]int, len(del))
	for i, r := range del {
		shuffledDel[i] = at[r]
	}
	ordered := newMatrixTable(t, schema, row, base)
	ordered.mutate(t, ins, del)
	shuffled := newMatrixTable(t, schema, func(i int) []any { return row(perm[i]) }, base)
	shuffled.mutate(t, ins, shuffledDel)

	// The filtered logical row sequence, and the same rows cut by the flat
	// layout's physical morsels.
	var kept []float64
	var physical float64
	for lo := 0; lo < base+ins; lo += MorselRows {
		var part float64
		for i := lo; i < min(lo+MorselRows, base+ins); i++ {
			if i%2 == 1 && !slices.Contains(del, i) {
				x := row(i)[3].(float64)
				kept = append(kept, x)
				part += x
			}
		}
		physical += part
	}
	serial, grid, exact := gridSum(kept, len(kept)), gridSum(kept, MorselRows), exactSum(kept)
	if serial == grid || serial == physical || grid == physical {
		t.Fatalf("degenerate column: serial %x, relation grid %x, physical grid %x", serial, grid, physical)
	}

	dim := colstore.NewTable("dim", colstore.Schema{{Name: "k", Type: colstore.Int64}})
	must(t, dim.Writer().Int64("k", 0, 1, 2, 3, 4, 5, 6).Close())
	mustMerge(t, dim)
	sum := []expr.AggSpec{{Func: expr.AggSum, Col: "x", As: "s"}}
	arms := func(src *colstore.Table) map[string]Node {
		scan := func() *Scan {
			return &Scan{Source: src, Select: []string{"g", "x"}, Preds: []expr.Pred{{Col: "keep", Op: vec.EQ, Val: expr.IntVal(1)}}}
		}
		return map[string]Node{
			"scan-fed":     &HashAgg{Child: scan(), Aggs: sum},
			"relation-fed": &HashAgg{Child: opaque(scan()), Aggs: sum},
			"join": &HashAgg{Child: &Join{Left: scan(), Right: &Scan{Source: dim},
				LeftKey: "g", RightKey: "k"}, Aggs: sum},
		}
	}
	check := func(when string) {
		for tname, tw := range map[string]*matrixTable{"ordered": ordered, "shuffled": shuffled} {
			for aname, plan := range arms(tw.flat) {
				for _, dop := range []int{1, 2, 8} {
					rel, _ := runPlan(t, plan, dop)
					if got := rel.Cols[0].F[0]; math.Float64bits(got) != math.Float64bits(exact) {
						t.Fatalf("%s %s %s dop=%d: SUM = %x; exact %x (serial %x, relation grid %x, physical grid %x)",
							when, tname, aname, dop, got, exact, serial, grid, physical)
					}
					if fused := plan.(*HashAgg).fusion(); (fused == "fused") != (aname == "scan-fed") || fused == "fused probe→agg" {
						t.Fatalf("%s %s %s: feeder %q", when, tname, aname, fused)
					}
				}
			}
		}
	}
	check("live")
	for _, tw := range []*matrixTable{ordered, shuffled} {
		_, err := tw.flat.Merge(0)
		must(t, err)
	}
	check("merged")
}

// TestFloatMinMaxIsOrderFree: DOUBLE MIN/MAX follow one total order —
// −0 < +0, NaN above +Inf — so which of two values a feeder meets first
// never matters: NaN first or last, −0 before or after +0, in one morsel
// or two, global or grouped, scan-fed, relation-fed and
// through a join (the pair path feeding the relation feeder).
func TestFloatMinMaxIsOrderFree(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	cases := []struct {
		name                string
		first, second       float64
		wantMin, wantMax, s float64
	}{
		{"NaN first", nan, 1, 1, nan, nan},
		{"NaN last", 1, nan, 1, nan, nan},
		{"-0 then +0", negZero, 0, negZero, 0, 0},
		{"+0 then -0", 0, negZero, negZero, 0, 0},
	}
	schema := colstore.Schema{
		{Name: "ck", Type: colstore.Int64},
		{Name: "keep", Type: colstore.Int64},
		{Name: "g", Type: colstore.Int64},
		{Name: "x", Type: colstore.Float64},
	}
	dim := colstore.NewTable("dim", colstore.Schema{{Name: "k", Type: colstore.Int64}})
	must(t, dim.Writer().Int64("k", 0).Close())
	mustMerge(t, dim)
	aggs := []expr.AggSpec{{Func: expr.AggMin, Col: "x"}, {Func: expr.AggMax, Col: "x"}, {Func: expr.AggSum, Col: "x"}}
	for _, c := range cases {
		for _, gap := range []int{1, MorselRows} { // the pair in one morsel or two
			row := func(i int) []any {
				x, keep := 5.0, int64(0)
				switch i {
				case 3:
					x, keep = c.first, 1
				case 3 + gap:
					x, keep = c.second, 1
				}
				return []any{int64(i*7919) % (1 << 16), keep, int64(0), x}
			}
			src := newMatrixTable(t, schema, row, MorselRows+10).flat
			{
				for _, groupBy := range [][]string{nil, {"g"}} {
					scan := func() *Scan {
						return &Scan{Source: src, Select: []string{"g", "x"}, Preds: []expr.Pred{{Col: "keep", Op: vec.EQ, Val: expr.IntVal(1)}}}
					}
					for aname, plan := range map[string]Node{
						"scan-fed":     &HashAgg{Child: scan(), GroupBy: groupBy, Aggs: aggs},
						"relation-fed": &HashAgg{Child: opaque(scan()), GroupBy: groupBy, Aggs: aggs},
						"join": &HashAgg{Child: &Join{Left: scan(), Right: &Scan{Source: dim}, LeftKey: "g", RightKey: "k"},
							GroupBy: groupBy, Aggs: aggs},
					} {
						rel, _ := runPlan(t, plan, 2)
						k := len(groupBy)
						got := []float64{rel.Cols[k].F[0], rel.Cols[k+1].F[0], rel.Cols[k+2].F[0]}
						for i, want := range []float64{c.wantMin, c.wantMax, c.s} {
							if !sameBits(got[i], want) {
								t.Fatalf("%s gap=%d GROUP BY %v %s: MIN, MAX, SUM = %v, want %v %v %v",
									c.name, gap, groupBy, aname, got, c.wantMin, c.wantMax, c.s)
							}
						}
					}
				}
			}
		}
	}
}

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// TestAggAllocsDoNotScaleWithRows: a scan-fed aggregation allocates no
// more per run over 1 Mi rows than over 256 Ki, bar a pool refill: fewer
// than one allocation per extra morsel.  The cases cover the global group,
// a swept string key, a swept BIGINT key beside every accumulator kind,
// and a sparse selection folded on a two-column key — every way a morsel
// resolves its group id vector.  Selections, row lists, group ids and
// column windows live in per-worker scratch, partial tables return to
// their pool once merged, and a DOUBLE input is read in place — nothing
// is allocated per morsel, let alone per row.  The pools start empty at
// each size and GC is held off while measuring; a pool still fills at the
// scheduler's pace (a second worker's scratch is made the first time two
// morsels overlap, a Get can miss what another P caches), which the slack
// absorbs and a per-morsel table (ten allocations a morsel) does not fit
// in.
func TestAggAllocsDoNotScaleWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled objects at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const extraMorsels = (1<<20 - 1<<18) / MorselRows
	sum := func(fn expr.AggFunc, col string) expr.AggSpec { return expr.AggSpec{Func: fn, Col: col} }
	cases := []struct {
		groupBy []string
		aggs    []expr.AggSpec
		preds   []expr.Pred
	}{
		{nil, []expr.AggSpec{sum(expr.AggSum, "amount")}, nil},
		{[]string{"region"}, []expr.AggSpec{sum(expr.AggSum, "amount")}, nil},
		{[]string{"custkey"}, []expr.AggSpec{{Func: expr.AggCount}, sum(expr.AggSum, "day"), sum(expr.AggMin, "amount"),
			sum(expr.AggMax, "day"), sum(expr.AggAvg, "amount")}, nil},
		{[]string{"region", "custkey"}, []expr.AggSpec{{Func: expr.AggCount}, sum(expr.AggSum, "day")},
			[]expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(7)}}},
		// point_hot's statement on its hottest key: segment synopses answer it
		{nil, []expr.AggSpec{{Func: expr.AggCount}, sum(expr.AggSum, "amount")},
			[]expr.Pred{{Col: "custkey", Op: vec.EQ, Val: expr.IntVal(0)}}},
	}
	base := make([]float64, len(cases))
	for _, n := range []int{1 << 18, 1 << 20} {
		tab := ordersTable(t, n)
		for ci, c := range cases {
			agg := &HashAgg{Child: &Scan{Source: tab, Select: []string{"id", "custkey", "region", "amount", "day"},
				Preds: c.preds}, GroupBy: c.groupBy, Aggs: c.aggs}
			if agg.fusion() != "fused" {
				t.Fatalf("case %d is not scan-fed", ci)
			}
			runtime.GC()
			runtime.GC() // the second empties the pools' victim caches too
			allocs := testing.AllocsPerRun(20, func() {
				ctx := NewCtx()
				ctx.Lease = NewLease(2)
				if _, err := agg.Run(ctx); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("case %d (GROUP BY %v), %d rows: %.0f allocs/op", ci, c.groupBy, n, allocs)
			if n == 1<<18 {
				base[ci] = allocs
			} else if allocs-base[ci] >= extraMorsels {
				t.Fatalf("case %d (GROUP BY %v): allocations grow with rows: %.0f at 256 Ki, %.0f at 1 Mi", ci, c.groupBy, base[ci], allocs)
			}
		}
	}
}

// TestIntSumOverflowWrapsIdentically: a BIGINT SUM that passes
// math.MaxInt64 wraps modulo 2^64 to the SAME value on every path — the
// scan feeder's RLE closed form n*v and its row-at-a-time spans, the
// relation feeder, the partial merge, the probe fold and the map oracle —
// at DOP {1, 2, 8}, because all of them only add and multiply in one ring.
func TestIntSumOverflowWrapsIdentically(t *testing.T) {
	const n = 2*MorselRows + 1000
	tab := colstore.NewTable("wrap", colstore.Schema{
		{Name: "g", Type: colstore.Int64},
		{Name: "rle", Type: colstore.Int64},
		{Name: "raw", Type: colstore.Int64},
	})
	g, rle, raw := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range g {
		g[i] = int64(i % 5)
		rle[i] = math.MaxInt64/3 - int64(i/512)           // long runs of huge values
		raw[i] = int64(uint64(i)*0x9E3779B97F4A7C15) >> 1 // 63 random bits, non-negative
	}
	raw[0] = math.MinInt64 // a 64-bit range defeats bit-packing: seals raw
	exact := map[string]*big.Int{"rle": new(big.Int), "raw": new(big.Int)}
	for i := range g {
		exact["rle"].Add(exact["rle"], big.NewInt(rle[i]))
		exact["raw"].Add(exact["raw"], big.NewInt(raw[i]))
	}
	must(t, tab.Writer().
		Int64("g", g...).
		Int64("rle", rle...).
		Int64("raw", raw...).
		Close())
	mustMerge(t, tab)
	for _, name := range []string{"rle", "raw"} {
		c, err := tab.IntCol(name)
		must(t, err)
		if c.Storage().Segments[name] == 0 {
			t.Fatalf("column %q did not seal as %s: %v", name, name, c.Storage().Segments)
		}
		if exact[name].CmpAbs(big.NewInt(math.MaxInt64)) <= 0 {
			t.Fatalf("SUM(%s) = %s does not overflow", name, exact[name])
		}
	}
	aggs := []expr.AggSpec{{Func: expr.AggSum, Col: "rle"}, {Func: expr.AggSum, Col: "raw"}}
	scan := func() *Scan { return &Scan{Source: tab, Select: []string{"g", "rle", "raw"}} }
	dim := colstore.NewTable("dim", colstore.Schema{{Name: "k", Type: colstore.Int64}})
	must(t, dim.Writer().Int64("k", 0, 1, 2, 3, 4).Close())
	mustMerge(t, dim)
	for _, groupBy := range [][]string{nil, {"g"}} {
		want, _ := runPlan(t, &mapAgg{Child: opaque(scan()), GroupBy: groupBy, Aggs: aggs}, 1)
		if groupBy == nil {
			for ci, name := range []string{"rle", "raw"} {
				wrapped := new(big.Int).And(exact[name], new(big.Int).SetUint64(math.MaxUint64)).Uint64()
				if got := uint64(want.Cols[ci].I[0]); got != wrapped {
					t.Fatalf("SUM(%s) = %d, want the exact sum modulo 2^64 = %d", name, got, wrapped)
				}
			}
		}
		plans := map[string]Node{
			"scan-fed":     &HashAgg{Child: scan(), GroupBy: groupBy, Aggs: aggs},
			"relation-fed": &HashAgg{Child: opaque(scan()), GroupBy: groupBy, Aggs: aggs},
			"probe-fold": &HashAgg{Child: &Join{Left: scan(), Right: &Scan{Source: dim},
				LeftKey: "g", RightKey: "k"}, GroupBy: groupBy, Aggs: aggs},
		}
		if plans["probe-fold"].(*HashAgg).fusion() != "fused probe→agg" {
			t.Fatal("the probe-fold arm does not fold")
		}
		for pname, plan := range plans {
			for _, dop := range []int{1, 2, 8} {
				got, _ := runPlan(t, plan, dop)
				if err := sameAggRelation(got, want); err != nil {
					t.Fatalf("%s GROUP BY %v dop=%d: %v", pname, groupBy, dop, err)
				}
			}
		}
	}
}
