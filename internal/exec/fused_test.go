package exec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/experiments/synth"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Fused-vs-materialized byte-identity matrix (ISSUE 9 acceptance).  The
// fused operate-on-compressed pipelines must be invisible to results: for
// every sealed codec (rle/dict/delta/bitpack/raw) and for a live
// main+delta snapshot (whose tail scans as EncRaw spans), the fused
// filter→aggregate and filter→probe paths return relations byte-identical
// to the materializing pipeline (the same plan with its scan hidden
// behind opaque), each path's counters are DOP-invariant, and the fused
// path touches strictly fewer DRAM bytes on the dense compressed arms.
// Never wall clock: CI has one CPU, so invariance is what is assertable.

// fusedMatrixTable seals a table whose int columns land in every codec
// the seal advisor can choose — rle, dict, delta, bitpack, and raw (the
// wide column's >63-bit range defeats bitpacking) — plus a dictionary
// string column and a float column.  extra > 0 additionally applies
// delta inserts at commit timestamps 1..extra and tombstones over main
// and delta rows, so unsealed EncRaw tail spans join the matrix.
func fusedMatrixTable(t testing.TB, n, extra int) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("fusedmatrix", colstore.Schema{
		{Name: "rle", Type: colstore.Int64},
		{Name: "lowcard", Type: colstore.Int64},
		{Name: "sorted", Type: colstore.Int64},
		{Name: "packed", Type: colstore.Int64},
		{Name: "wide", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
	})
	wide := synth.UniformInts(24, n, 1<<20)
	wide[0], wide[1] = -1<<62, 1<<62 // blows the bitpack width: seals raw
	rcodes := synth.UniformInts(23, n, int64(len(workload.RegionNames)))
	regions := make([]string, n)
	for i, c := range rcodes {
		regions[i] = workload.RegionNames[c]
	}
	amounts := make([]float64, n)
	for i := range amounts {
		amounts[i] = float64(i%997) + 0.25
	}
	must(t, tab.Writer().Int64("rle", synth.RunsInts(19, n, 16, 64)...).Close())
	must(t, tab.Writer().Int64("lowcard", synth.UniformInts(20, n, 32)...).Close())
	must(t, tab.Writer().Int64("sorted", synth.SortedInts(21, n, 8)...).Close())
	must(t, tab.Writer().Int64("packed", synth.UniformInts(22, n, 1<<20)...).Close())
	must(t, tab.Writer().Int64("wide", wide...).Close())
	must(t, tab.Writer().String("region", regions...).Close())
	must(t, tab.Writer().Float64("amount", amounts...).Close())
	must(t, tab.Seal())

	// The matrix only holds if the advisor actually chose the codecs the
	// column names claim; a generator drift would silently hollow the test.
	for name, want := range map[string]string{
		"rle": "rle", "lowcard": "dict", "sorted": "delta",
		"packed": "bitpack", "wide": "raw",
	} {
		c, err := tab.IntCol(name)
		must(t, err)
		if got := c.Storage().Segments; got[want] == 0 {
			t.Fatalf("column %q did not seal as %s: segments %v", name, want, got)
		}
	}

	lsn := uint64(1)
	for i := 0; i < extra; i++ {
		_, err := tab.ApplyInsert(int64(i+1), lsn,
			int64(i%16), int64(i%32), int64(8*n+i), int64(i%(1<<20)),
			int64(i), workload.RegionNames[i%len(workload.RegionNames)],
			float64(i)+0.5)
		must(t, err)
		lsn++
	}
	if extra > 0 {
		for i := 0; i < n/37; i++ {
			must(t, tab.ApplyDelete(1000+int64(i), lsn, tab.RowID(i*37)))
			lsn++
		}
		for i := 0; i < extra/10; i++ {
			must(t, tab.ApplyDelete(2000+int64(i), lsn, tab.RowID(n+i*10)))
			lsn++
		}
	}
	return tab
}

// fusedAggCases is the GROUP BY / aggregate shape matrix: one case per
// group-key codec (rle, dict, delta via sorted, bitpack via packed, raw
// via wide, string dict, global), exercising the run-at-a-time closed
// form (SUM(rle) GROUP BY rle), the code-domain dict sweep, COUNT with
// and without a column, MIN/MAX, and integer AVG.
type fusedAggCase struct {
	name    string
	sel     []string
	groupBy []string
	aggs    []expr.AggSpec
	preds   []expr.Pred
}

func fusedAggCases() []fusedAggCase {
	densePred := []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(1 << 19)}}
	sparsePred := []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(512)}}
	return []fusedAggCase{
		{
			name:    "rle-group",
			sel:     []string{"rle", "sorted", "packed"},
			groupBy: []string{"rle"},
			aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "rle"}, // closed form: run × value
				{Func: expr.AggCount},
				{Func: expr.AggMin, Col: "sorted"},
				{Func: expr.AggMax, Col: "sorted"},
			},
			preds: densePred,
		},
		{
			name:    "dict-group",
			sel:     []string{"lowcard", "sorted", "packed"},
			groupBy: []string{"lowcard"},
			aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "sorted"},
				{Func: expr.AggAvg, Col: "packed"},
				{Func: expr.AggCount},
			},
			preds: densePred,
		},
		{
			name:    "delta-group",
			sel:     []string{"sorted", "packed"},
			groupBy: []string{"sorted"},
			aggs:    []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggMax, Col: "packed"}},
			preds:   sparsePred, // sparse: the point-read fold path
		},
		{
			name:    "raw-group",
			sel:     []string{"wide", "rle"},
			groupBy: []string{"wide"},
			aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "rle"}, {Func: expr.AggCount}},
			preds:   densePred[:0], // no predicate: full-visibility fold
		},
		{
			name:    "string-group",
			sel:     []string{"region", "packed", "rle"},
			groupBy: []string{"region"},
			aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "packed"},
				{Func: expr.AggCount, Col: "region"},
			},
			preds: densePred,
		},
		{
			name: "global",
			sel:  []string{"rle", "sorted", "packed"},
			aggs: []expr.AggSpec{
				{Func: expr.AggSum, Col: "rle"}, // RLE run-at-a-time, no group col
				{Func: expr.AggMin, Col: "packed"},
				{Func: expr.AggMax, Col: "sorted"},
				{Func: expr.AggCount},
			},
			preds: densePred,
		},
	}
}

type fusedArm struct {
	rel *Relation
	w   energy.Counters
}

// runAggArm executes one HashAgg-over-Scan plan at the given DOP and
// snapshot, returning the relation and the full counter snapshot;
// unfused hides the scan so the materializing pipeline runs.
func runAggArm(t *testing.T, tab *colstore.Table, c fusedAggCase, snap int64, dop int, unfused bool) fusedArm {
	t.Helper()
	ctx := NewCtx()
	ctx.SnapTS = snap
	ctx.Lease = NewLease(dop)
	var child Node = &Scan{Source: tab, Select: c.sel, Preds: c.preds}
	if unfused {
		child = opaque(child)
	}
	agg := &HashAgg{Child: child, GroupBy: c.groupBy, Aggs: c.aggs}
	rel, err := agg.Run(ctx)
	must(t, err)
	return fusedArm{rel, ctx.Meter.Snapshot()}
}

// TestFusedAggByteIdentityMatrix is the tentpole acceptance matrix for
// fused filter→aggregate: every codec × DOP {1,2,8} × sealed-only vs
// live main+delta snapshots.  Relations are DeepEqual across paths and
// DOPs, counters are DeepEqual across DOPs within each path, and the
// fused path reads strictly fewer DRAM bytes on the dense compressed
// arms (sparse arms point-read either way).
func TestFusedAggByteIdentityMatrix(t *testing.T) {
	const n = 300_000
	tables := []struct {
		name string
		tab  *colstore.Table
		snap int64
	}{
		{"sealed", fusedMatrixTable(t, n, 0), snapLatest},
		{"main+delta", fusedMatrixTable(t, n, 300), snapLatest},
		{"main+delta@150", fusedMatrixTable(t, n, 300), 150},
	}
	for _, tc := range tables {
		for _, c := range fusedAggCases() {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				scan := &Scan{Source: tc.tab, Select: c.sel, Preds: c.preds}
				if !FusedAggEligible(scan, c.groupBy, c.aggs) {
					t.Fatalf("case unexpectedly ineligible for fusion")
				}
				unf := runAggArm(t, tc.tab, c, tc.snap, 1, true)
				fus := runAggArm(t, tc.tab, c, tc.snap, 1, false)
				if unf.rel.N == 0 {
					t.Fatal("degenerate case: no output groups")
				}
				if !fus.rel.Equal(unf.rel) {
					t.Fatalf("fused relation diverged from the relation-fed twin\n got %+v\nwant %+v", fus.rel, unf.rel)
				}
				for _, dop := range []int{2, 8} {
					if a := runAggArm(t, tc.tab, c, tc.snap, dop, true); !reflect.DeepEqual(a.rel, unf.rel) || a.w != unf.w {
						t.Fatalf("dop=%d: unfused path not DOP-invariant", dop)
					}
					if a := runAggArm(t, tc.tab, c, tc.snap, dop, false); !reflect.DeepEqual(a.rel, fus.rel) || a.w != fus.w {
						t.Fatalf("dop=%d: fused path not DOP-invariant", dop)
					}
				}
				// Physical bytes must drop on the dense arms where fusion
				// skips the intermediate.  (Total TuplesIn/TuplesOut are NOT
				// cross-path comparable: the two feeders cut different morsel
				// grids, so their merges report different partial-group tuples.)
				switch c.name {
				case "rle-group", "dict-group", "string-group", "global":
					if fus.w.BytesReadDRAM >= unf.w.BytesReadDRAM {
						t.Fatalf("fused did not lower DRAM bytes: fused=%d unfused=%d",
							fus.w.BytesReadDRAM, unf.w.BytesReadDRAM)
					}
				}
			})
		}
	}
}

// TestFusedAggEligibility is the one feeder selection rule: an
// aggregation is scan-fed iff its child is a *Scan, everything it names
// binds, and no GROUP BY column is a DOUBLE.  Any number of BIGINT/string
// group columns and DOUBLE value inputs are scan-fed, and every
// scan-fed shape answers byte for byte what its relation-fed twin (the
// same scan hidden behind opaque) answers — the feeder is a plan
// decision, never a result change.
func TestFusedAggEligibility(t *testing.T) {
	tab := fusedMatrixTable(t, 2*colstore.SegSize, 0)
	flat := func(sel ...string) *Scan { return &Scan{Source: tab, Select: sel} }
	count := []expr.AggSpec{{Func: expr.AggCount}}
	cases := []struct {
		name    string
		child   Node
		groupBy []string
		aggs    []expr.AggSpec
		scanFed bool
		// run: "twin" → scan-fed, equal to the opaque twin; "ok" → the
		// relation feeder answers; "err" → it owns the binding error.
		run string
	}{
		{"flat/int-group", flat("rle", "region", "amount"), []string{"rle"}, count, true, "twin"},
		{"flat/string-group", flat("rle", "region", "amount"), []string{"region"}, count, true, "twin"},
		{"flat/global", flat("rle"), nil, []expr.AggSpec{{Func: expr.AggSum, Col: "rle"}}, true, "twin"},
		{"flat/multi-group", flat("rle", "region", "amount"), []string{"rle", "region"}, count, true, "twin"},
		// Every scan emits strings as codes: the twin groups the relation's
		// codes, the scan feeder the stored column's.
		{"flat/code-domain-group", flat("region", "rle"), []string{"region"}, count, true, "twin"},
		{"flat/float-group", flat("rle", "region", "amount"), []string{"amount"}, count, false, "ok"},
		{"flat/float-agg-input", flat("rle", "region", "amount"), []string{"rle"},
			[]expr.AggSpec{{Func: expr.AggSum, Col: "amount"}, {Func: expr.AggMin, Col: "amount"},
				{Func: expr.AggMax, Col: "amount"}, {Func: expr.AggAvg, Col: "amount"}}, true, "twin"},
		{"flat/float-global", flat("amount"), nil, []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}}, true, "twin"},
		{"flat/opaque-child", opaque(flat("rle")), []string{"rle"}, count, false, "ok"},
		{"flat/count-col-not-selected", flat("rle", "region", "amount"), []string{"rle"},
			[]expr.AggSpec{{Func: expr.AggCount, Col: "sorted"}}, false, "err"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			agg := &HashAgg{Child: c.child, GroupBy: c.groupBy, Aggs: c.aggs}
			if got := agg.scanFeed() != nil; got != c.scanFed {
				t.Fatalf("scan-fed = %v, want %v", got, c.scanFed)
			}
			if s, ok := c.child.(*Scan); ok && FusedAggEligible(s, c.groupBy, c.aggs) != c.scanFed {
				t.Fatal("planner mirror disagrees with the executor")
			}
			ctx := NewCtx()
			rel, err := agg.Run(ctx)
			if c.run == "err" {
				if err == nil {
					t.Fatal("the relation feeder must report the binding error")
				}
				return
			}
			must(t, err)
			if rel.N == 0 || ranScanFed(ctx) != c.scanFed {
				t.Fatalf("%d groups, ran scan-fed = %v", rel.N, ranScanFed(ctx))
			}
			if c.run == "twin" {
				twin, err := (&HashAgg{Child: opaque(c.child), GroupBy: c.groupBy, Aggs: c.aggs}).Run(NewCtx())
				must(t, err)
				if !rel.Equal(twin) {
					t.Fatalf("scan-fed relation diverged from its relation-fed twin\n got %+v\nwant %+v", rel, twin)
				}
			}
		})
	}
}

// fusedDimTable seals a small build-side table: one region string column
// (its sorted dictionary is a different backing slice than the fact
// table's, forcing the build-code translation) and an int weight.
func fusedDimTable(t testing.TB) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("dim", colstore.Schema{
		{Name: "region", Type: colstore.String},
		{Name: "weight", Type: colstore.Int64},
	})
	nr := len(workload.RegionNames)
	var regions []string
	var weights []int64
	// Two rows per region: duplicate build keys exercise match chains.
	for i := 0; i < 2*nr; i++ {
		regions = append(regions, workload.RegionNames[i%nr])
		weights = append(weights, int64(i)*10)
	}
	must(t, tab.Writer().String("region", regions...).Close())
	must(t, tab.Writer().Int64("weight", weights...).Close())
	must(t, tab.Seal())
	return tab
}

// intDimSource is a build-side relation over int keys 0..47 (two rows
// per key < 16, so low "lowcard" codes fan out to two matches, and keys
// 32..47 match nothing).
func intDimSource() *relSource {
	var keys []int64
	var weights []int64
	for i := 0; i < 64; i++ {
		keys = append(keys, int64(i%48))
		weights = append(weights, int64(i)*7)
	}
	return &relSource{rel: &Relation{N: len(keys), Cols: []Col{
		{Name: "k", Type: colstore.Int64, I: keys},
		{Name: "weight", Type: colstore.Int64, I: weights},
	}}}
}

type fusedJoinCase struct {
	name     string
	sel      []string
	leftKey  string
	right    func(t *testing.T) Node
	rightKey string
	preds    []expr.Pred
}

func fusedJoinCases() []fusedJoinCase {
	densePred := []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(1 << 19)}}
	sparsePred := []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(512)}}
	return []fusedJoinCase{
		{
			name:     "int-key",
			sel:      []string{"lowcard", "packed", "region"},
			leftKey:  "lowcard",
			right:    func(*testing.T) Node { return intDimSource() },
			rightKey: "k",
			preds:    densePred,
		},
		{
			name:    "string-key-translate",
			sel:     []string{"region", "rle", "packed"},
			leftKey: "region",
			right: func(t *testing.T) Node {
				return &Scan{Source: fusedDimTable(t)}
			},
			rightKey: "region",
			preds:    densePred,
		},
		{
			name:     "int-key-sparse",
			sel:      []string{"lowcard", "sorted"},
			leftKey:  "lowcard",
			right:    func(*testing.T) Node { return intDimSource() },
			rightKey: "k",
			preds:    sparsePred, // a few hundred probe rows survive: one short relation morsel
		},
	}
}

// runJoinArm executes one Join with a Scan probe side; unfused
// hides the scan so the materialize-then-probe pipeline runs.
func runJoinArm(t *testing.T, tab *colstore.Table, c fusedJoinCase, snap int64, dop int, unfused bool) fusedArm {
	t.Helper()
	ctx := NewCtx()
	ctx.SnapTS = snap
	ctx.Lease = NewLease(dop)
	var left Node = &Scan{Source: tab, Select: c.sel, Preds: c.preds}
	if unfused {
		left = opaque(left)
	}
	j := &Join{Left: left, Right: c.right(t), LeftKey: c.leftKey, RightKey: c.rightKey}
	rel, err := j.Run(ctx)
	must(t, err)
	return fusedArm{rel, ctx.Meter.Snapshot()}
}

// TestFusedProbeByteIdentityMatrix: fused filter→probe returns relations
// byte-identical to the materialize-then-join source — including the
// build-code translation through the probe column's global dictionary
// and a sparse filter that leaves the relation source a few hundred rows
// — with DOP-invariant counters per source and strictly fewer DRAM bytes
// on the dense arms.
func TestFusedProbeByteIdentityMatrix(t *testing.T) {
	const n = 200_000
	tables := []struct {
		name string
		tab  *colstore.Table
		snap int64
	}{
		{"sealed", fusedMatrixTable(t, n, 0), snapLatest},
		{"main+delta", fusedMatrixTable(t, n, 300), snapLatest},
	}
	for _, tc := range tables {
		for _, c := range fusedJoinCases() {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				scan := &Scan{Source: tc.tab, Select: c.sel, Preds: c.preds}
				if !FusedProbeEligible(scan, c.leftKey) {
					t.Fatalf("case unexpectedly ineligible for probe fusion")
				}
				unf := runJoinArm(t, tc.tab, c, tc.snap, 1, true)
				fus := runJoinArm(t, tc.tab, c, tc.snap, 1, false)
				if unf.rel.N == 0 {
					t.Fatal("degenerate case: join produced no rows")
				}
				if !fus.rel.Equal(unf.rel) {
					t.Fatalf("fused join relation diverged from the materializing twin (N fused=%d unfused=%d)",
						fus.rel.N, unf.rel.N)
				}
				for _, dop := range []int{2, 8} {
					if a := runJoinArm(t, tc.tab, c, tc.snap, dop, true); !reflect.DeepEqual(a.rel, unf.rel) || a.w != unf.w {
						t.Fatalf("dop=%d: unfused join not DOP-invariant", dop)
					}
					if a := runJoinArm(t, tc.tab, c, tc.snap, dop, false); !reflect.DeepEqual(a.rel, fus.rel) || a.w != fus.w {
						t.Fatalf("dop=%d: fused join not DOP-invariant", dop)
					}
				}
				if c.name != "int-key-sparse" && fus.w.BytesReadDRAM >= unf.w.BytesReadDRAM {
					t.Fatalf("fused probe did not lower DRAM bytes: fused=%d unfused=%d",
						fus.w.BytesReadDRAM, unf.w.BytesReadDRAM)
				}
			})
		}
	}
}

// TestFusedProbeEligibility pins the plan-time nil edges, and that there
// is no run-time change of mind behind an eligible plan: tiny inputs, a
// string key over unsealed storage and a build side of strings interned
// from outside storage run the fused probe like everything else and
// answer exactly as with the scan hidden.
func TestFusedProbeEligibility(t *testing.T) {
	tab := fusedMatrixTable(t, 2*colstore.SegSize, 0)
	mkScan := func(sel ...string) *Scan {
		return &Scan{Source: tab, Select: sel}
	}
	nilPlans := []struct {
		name string
		j    *Join
	}{
		{"opaque-child", &Join{Left: opaque(mkScan("lowcard")), LeftKey: "lowcard"}},
		{"float-key", &Join{Left: mkScan("amount"), LeftKey: "amount"}},
		{"key-not-selected", &Join{Left: mkScan("rle"), LeftKey: "lowcard"}},
		{"non-scan-child", &Join{Left: intDimSource(), LeftKey: "k"}},
	}
	for _, c := range nilPlans {
		if c.j.scanProbe() != nil {
			t.Fatalf("%s: shape must not be probe-fusion-eligible", c.name)
		}
	}

	// run executes the join with the probe scan bare or hidden and reports
	// whether the fused probe phase ran.
	run := func(s *Scan, right Node, lk, rk string, unfused bool) (*Relation, bool) {
		var left Node = s
		if unfused {
			left = opaque(s)
		}
		ctx := NewCtx()
		rel, err := (&Join{Left: left, Right: right, LeftKey: lk, RightKey: rk}).Run(ctx)
		must(t, err)
		fused := false
		for _, op := range ctx.OpReports {
			fused = fused || strings.HasSuffix(op.Label, "[fused probe]")
		}
		return rel, fused
	}
	same := func(name string, mk func() *Scan, right Node, lk, rk string) {
		t.Helper()
		got, fused := run(mk(), right, lk, rk, false)
		want, hidden := run(mk(), right, lk, rk, true)
		if !fused || hidden || want.N == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fused=%v hidden-fused=%v rows=%d", name, fused, hidden, want.N)
		}
	}

	// Inputs far below every retired row threshold.
	tiny := fusedMatrixTable(t, 4096, 0)
	same("tiny", func() *Scan {
		return &Scan{Source: tiny, Select: []string{"lowcard", "sorted"}}
	}, intDimSource(), "lowcard", "k")

	// A string key over storage never sealed — an append-order dictionary,
	// raw code segments — fuses like a sealed one.
	unsealed := colstore.NewTable("unsealed", colstore.Schema{{Name: "region", Type: colstore.String}})
	for i := 0; i < 3000; i++ {
		must(t, unsealed.Writer().Row(workload.RegionNames[(i*7)%len(workload.RegionNames)]).Close())
	}
	same("unsealed-string-key", func() *Scan {
		return &Scan{Source: unsealed}
	}, &Scan{Source: fusedDimTable(t)}, "region", "region")

	// Probe codes against a build side of strings from outside storage (a
	// first-appearance dictionary): the build codes translate, the probe
	// still fuses.
	rawDim := &relSource{rel: &Relation{N: len(workload.RegionNames), Cols: []Col{
		StringCol("region", workload.RegionNames[:]),
		{Name: "weight", Type: colstore.Int64, I: make([]int64, len(workload.RegionNames))},
	}}}
	same("outside-build-strings", func() *Scan {
		return &Scan{Source: tab, Select: []string{"region", "rle"}}
	}, rawDim, "region", "region")

	// Error parity: a fused-eligible probe against a mismatched build key
	// type reports the same error as the materializing path.
	mismatch := func(unfused bool) error {
		var left Node = &Scan{Source: tab, Select: []string{"lowcard"}}
		if unfused {
			left = opaque(left)
		}
		_, err := (&Join{
			Left:    left,
			Right:   &Scan{Source: fusedDimTable(t)},
			LeftKey: "lowcard", RightKey: "region",
		}).Run(NewCtx())
		return err
	}
	ef, eu := mismatch(false), mismatch(true)
	if ef == nil || eu == nil || ef.Error() != eu.Error() {
		t.Fatalf("type-mismatch error parity broken: fused=%v unfused=%v", ef, eu)
	}
}
