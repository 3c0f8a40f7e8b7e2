package exec

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Fused probe→aggregate identity tests (ISSUE 14 acceptance).  A join
// under a GROUP BY folds its matches straight into partial aggregates;
// that must be invisible to results — the relation is byte-identical to
// the materializing pipeline (the same plan with its probe scan hidden
// behind opaque, so probe, gather and the relation-fed HashAgg all run) — and
// the fused arm's relation and counters are DOP-invariant.  Never wall
// clock: CI has one CPU, so invariance is what is assertable.

// probeAggDim seals the build side: two rows per key 0..39 (duplicate
// build keys fan every match out; keys 32..39 match no lowcard value), a
// four-value string, a BIGINT bucket, an Int64 weight, a tier whose
// value 3 keeps ~10% of the rows, and a float nothing may fold.
func probeAggDim(t testing.TB) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("dim", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "name", Type: colstore.String},
		{Name: "bucket", Type: colstore.Int64},
		{Name: "weight", Type: colstore.Int64},
		{Name: "tier", Type: colstore.Int64},
		{Name: "score", Type: colstore.Float64},
	})
	names := []string{"gold", "silver", "bronze", "tin"}
	w := tab.Writer()
	for i := 0; i < 80; i++ {
		w.Int64("k", int64(i%40)).
			String("name", names[(i*3)%len(names)]).
			Int64("bucket", int64(i%5)*100).
			Int64("weight", int64(i)*7-100).
			Int64("tier", int64(i%10)).
			Float64("score", float64(i)+0.5)
	}
	must(t, w.Close())
	mustMerge(t, tab)
	return tab
}

// probeAggSpecs reads both sides: probe-side SUM/AVG, build-side MIN/MAX,
// and both COUNT forms.
var probeAggSpecs = []expr.AggSpec{
	{Func: expr.AggCount},
	{Func: expr.AggSum, Col: "sorted"},
	{Func: expr.AggMin, Col: "weight"},
	{Func: expr.AggMax, Col: "weight"},
	{Func: expr.AggAvg, Col: "packed"},
	{Func: expr.AggCount, Col: "weight"},
}

// probeAggPlan builds HashAgg(ParallelJoin(fact ⋈ dim on lowcard = k));
// unfused hides the probe scan, which sends the whole plan down the
// materializing pipeline — the oracle arm.
func probeAggPlan(fact, dim *colstore.Table, probePreds, dimPreds []expr.Pred, groupBy []string, aggs []expr.AggSpec, unfused bool) *HashAgg {
	var left Node = &Scan{Source: fact, Select: []string{"lowcard", "rle", "region", "sorted", "packed", "amount"}, Preds: probePreds}
	if unfused {
		left = opaque(left)
	}
	return &HashAgg{
		Child: &Join{
			Left:    left,
			Right:   &Scan{Source: dim, Select: []string{"k", "name", "bucket", "weight", "score"}, Preds: dimPreds},
			LeftKey: "lowcard", RightKey: "k",
		},
		GroupBy: groupBy,
		Aggs:    aggs,
	}
}

// runProbeAgg executes one plan at a DOP and reports the relation, the
// metered counters, and whether the probe→aggregate sink ran.
func runProbeAgg(t *testing.T, a *HashAgg, snap int64, dop int) (fusedArm, bool) {
	t.Helper()
	ctx := NewCtx()
	ctx.SnapTS = snap
	ctx.Lease = NewLease(dop)
	rel, err := a.Run(ctx)
	must(t, err)
	fused := false
	for _, r := range ctx.OpReports {
		fused = fused || strings.HasSuffix(r.Label, "[fused probe→agg]")
	}
	return fusedArm{rel, ctx.Meter.Snapshot()}, fused
}

func TestFusedProbeAggByteIdentityMatrix(t *testing.T) {
	const n = 2*MorselRows + 9000 // three morsels, the last one short
	dim := probeAggDim(t)
	tables := []struct {
		name string
		tab  *colstore.Table
	}{
		{"sealed", fusedMatrixTable(t, n, 0)},
		{"main+delta", fusedMatrixTable(t, n, 300)}, // live delta tail plus tombstones
	}
	dimFilters := []struct {
		name  string
		preds []expr.Pred
	}{
		{"dim=all", nil},
		{"dim=10%", []expr.Pred{{Col: "tier", Op: vec.EQ, Val: expr.IntVal(3)}}},
		{"dim=empty", []expr.Pred{{Col: "tier", Op: vec.EQ, Val: expr.IntVal(99)}}},
	}
	probeFilters := []struct {
		name  string
		preds []expr.Pred
	}{
		{"probe=all", nil}, // fully selected windows: no selection vector
		{"probe=50%", []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(1 << 19)}}},      // dense windows under a selection vector
		{"probe=1%", []expr.Pred{{Col: "packed", Op: vec.LT, Val: expr.IntVal(1 << 20 / 100)}}}, // below the density rule: point reads
	}
	groups := []struct {
		name    string
		groupBy []string
	}{
		{"group=build-string", []string{"name"}},
		{"group=build-bigint", []string{"bucket"}},
		{"group=probe-bigint", []string{"rle"}},
		{"group=probe-string", []string{"region"}},
		{"group=none", nil},
	}
	for _, tc := range tables {
		for _, df := range dimFilters {
			for _, pf := range probeFilters {
				for _, g := range groups {
					name := strings.Join([]string{tc.name, df.name, pf.name, g.name}, "/")
					t.Run(name, func(t *testing.T) {
						plan := func(unfused bool) *HashAgg {
							return probeAggPlan(tc.tab, dim, pf.preds, df.preds, g.groupBy, probeAggSpecs, unfused)
						}
						oracle, ranFused := runProbeAgg(t, plan(true), snapLatest, 1)
						if ranFused {
							t.Fatal("oracle arm took the fused sink: it compares nothing")
						}
						if (oracle.rel.N == 0) != (df.name == "dim=empty") {
							t.Fatalf("degenerate case: oracle produced %d groups", oracle.rel.N)
						}
						var base fusedArm
						for i, dop := range []int{1, 2, 8} {
							got, ranFused := runProbeAgg(t, plan(false), snapLatest, dop)
							if !ranFused {
								t.Fatalf("dop=%d: eligible plan did not take the probe→aggregate sink", dop)
							}
							if !got.rel.Equal(oracle.rel) {
								t.Fatalf("dop=%d: fused relation diverged from the materializing pipeline\nfused  %+v\noracle %+v",
									dop, got.rel, oracle.rel)
							}
							if i == 0 {
								base = got
							} else if got.w != base.w || !reflect.DeepEqual(got.rel, base.rel) {
								t.Fatalf("dop=%d: fused counters not DOP-invariant:\n%+v\n%+v", dop, got.w, base.w)
							}
						}
						if df.name == "dim=all" && base.w.BytesWrittenDRAM >= oracle.w.BytesWrittenDRAM {
							t.Fatalf("fused sink still writes an intermediate: %d vs %d bytes",
								base.w.BytesWrittenDRAM, oracle.w.BytesWrittenDRAM)
						}
					})
				}
			}
		}
	}
}

// TestFusedProbeAggCodeDomain covers a string-keyed join under a GROUP
// BY, grouped by the key itself, by a build-side column and globally,
// over a sealed and a never-sealed probe table: either way the probe
// streams codes, the build codes translate through the probe column's
// dictionary, and the matches fold straight into partial aggregates.
func TestFusedProbeAggCodeDomain(t *testing.T) {
	unsealed := colstore.NewTable("unsealed", colstore.Schema{
		{Name: "region", Type: colstore.String},
		{Name: "rle", Type: colstore.Int64},
		{Name: "packed", Type: colstore.Int64},
	})
	w := unsealed.Writer()
	for i := 0; i < 2*MorselRows; i++ {
		w.String("region", workload.RegionNames[(i*7)%len(workload.RegionNames)]).
			Int64("rle", int64(i/64%16)).
			Int64("packed", int64(i*7919%(1<<20)))
	}
	must(t, w.Close())
	dim := fusedDimTable(t)
	for _, fact := range []*colstore.Table{fusedMatrixTable(t, 2*MorselRows, 0), unsealed} {
		for _, groupBy := range [][]string{{"region"}, {"weight"}, nil} {
			plan := func(unfused bool) *HashAgg {
				var left Node = &Scan{Source: fact, Select: []string{"region", "rle", "packed"}}
				if unfused {
					left = opaque(left)
				}
				return &HashAgg{
					Child: &Join{
						Left:    left,
						Right:   &Scan{Source: dim},
						LeftKey: "region", RightKey: "region",
					},
					GroupBy: groupBy,
					Aggs:    []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "weight"}, {Func: expr.AggMax, Col: "packed"}},
				}
			}
			oracle, _ := runProbeAgg(t, plan(true), snapLatest, 1)
			for _, dop := range []int{1, 8} {
				got, ranFused := runProbeAgg(t, plan(false), snapLatest, dop)
				if !ranFused || oracle.rel.N == 0 || !got.rel.Equal(oracle.rel) {
					t.Fatalf("%s group %v dop=%d: fused=%v\nfused  %+v\noracle %+v", fact.Name, groupBy, dop, ranFused, got.rel, oracle.rel)
				}
			}
		}
	}
}

// TestFusedProbeAggEligibility pins the fallback edges of the eligibility
// table: each shape must plan as ineligible AND still answer exactly as
// the materializing pipeline does.
func TestFusedProbeAggEligibility(t *testing.T) {
	const n = 2 * MorselRows
	fact := fusedMatrixTable(t, n, 0)
	dim := probeAggDim(t)
	count := []expr.AggSpec{{Func: expr.AggCount}}
	factScan := func() *Scan {
		return &Scan{Source: fact, Select: []string{"lowcard", "rle", "amount"}}
	}
	dimScan := func() *Scan {
		return &Scan{Source: dim, Select: []string{"k", "name", "bucket", "score"}}
	}
	join := func(left, right Node) *Join {
		return &Join{Left: left, Right: right, LeftKey: "lowcard", RightKey: "k"}
	}

	outsideDim := &relSource{rel: &Relation{N: 2, Cols: []Col{
		StringCol("region", []string{"ASIA", "EUROPE"}),
		{Name: "weight", Type: colstore.Int64, I: []int64{1, 2}},
	}}}

	cases := []struct {
		name string
		agg  *HashAgg
	}{
		{"float-probe-input", &HashAgg{Child: join(factScan(), dimScan()), GroupBy: []string{"name"},
			Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "amount"}}}},
		{"float-build-input", &HashAgg{Child: join(factScan(), dimScan()), GroupBy: []string{"rle"},
			Aggs: []expr.AggSpec{{Func: expr.AggMax, Col: "score"}}}},
		{"float-group", &HashAgg{Child: join(factScan(), dimScan()), GroupBy: []string{"score"}, Aggs: count}},
		{"two-group-columns", &HashAgg{Child: join(factScan(), dimScan()), GroupBy: []string{"rle", "name"}, Aggs: count}},
		{"build-not-a-scan", &HashAgg{Child: join(factScan(), intDimSource()), GroupBy: []string{"rle"}, Aggs: count}},
		// Build strings from outside storage, interned by StringCol.
		{"raw-build-strings", &HashAgg{Child: &Join{
			Left:    &Scan{Source: fact, Select: []string{"region", "rle"}},
			Right:   outsideDim,
			LeftKey: "region", RightKey: "region"}, GroupBy: []string{"rle"}, Aggs: count}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.agg.probeFeed() != nil {
				t.Fatal("shape must not be probe→aggregate eligible")
			}
			got, ranFused := runProbeAgg(t, c.agg, snapLatest, 2)
			if ranFused {
				t.Fatal("ineligible shape took the fused sink")
			}
			// The same plan with the probe side hidden is the oracle.
			j := c.agg.Child.(*Join)
			oracle := &HashAgg{GroupBy: c.agg.GroupBy, Aggs: c.agg.Aggs,
				Child: &Join{Left: opaque(j.Left), Right: j.Right, LeftKey: j.LeftKey, RightKey: j.RightKey}}
			want, _ := runProbeAgg(t, oracle, snapLatest, 1)
			if want.rel.N == 0 || !got.rel.Equal(want.rel) {
				t.Fatalf("fallback answer diverged:\ngot  %+v\nwant %+v", got.rel, want.rel)
			}
		})
	}

	// Size is no edge: a probe far below every retired row threshold folds
	// like any other, and answers as the materializing pipeline does.
	tiny := func(hide bool) *HashAgg {
		var left Node = &Scan{Source: fusedMatrixTable(t, 4096, 0), Select: []string{"lowcard", "rle"}}
		if hide {
			left = opaque(left)
		}
		return &HashAgg{Child: join(left, dimScan()), GroupBy: []string{"rle"}, Aggs: count}
	}
	if tiny(false).probeFeed() == nil {
		t.Fatal("a tiny probe must be probe→aggregate eligible")
	}
	got, ranFused := runProbeAgg(t, tiny(false), snapLatest, 2)
	want, _ := runProbeAgg(t, tiny(true), snapLatest, 1)
	if !ranFused || want.rel.N == 0 || !got.rel.Equal(want.rel) {
		t.Fatalf("tiny probe: fused=%v\ngot  %+v\nwant %+v", ranFused, got.rel, want.rel)
	}

	// Error parity: an aggregate the relation feeder rejects is not eligible,
	// so the relation feeder reports it.
	bad := &HashAgg{Child: join(factScan(), dimScan()), Aggs: []expr.AggSpec{{Func: expr.AggSum, Col: "name"}}}
	if _, err := bad.Run(NewCtx()); err == nil || !strings.Contains(err.Error(), "VARCHAR") {
		t.Fatalf("SUM over a string column: want the relation feeder's VARCHAR error, got %v", err)
	}
}

// TestFusedProbeAggCancelMidProbe cancels the lease while the probe's
// morsels are being claimed: the operator must report ErrCanceled and no
// partial relation.  The cancel comes from a watcher that waits for the
// first probe morsel's counters to land; an attempt whose probe finishes
// before the watcher is scheduled proves nothing and is retried.
func TestFusedProbeAggCancelMidProbe(t *testing.T) {
	fact := fusedMatrixTable(t, 8*MorselRows, 0)
	dim := probeAggDim(t)
	for attempt := 0; attempt < 50; attempt++ {
		ctx := NewCtx()
		ctx.Lease = NewLease(1)
		stop := make(chan struct{})
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The build side is 80 rows; a probe morsel books MorselRows.
				if ctx.Meter.Snapshot().TuplesIn >= MorselRows {
					ctx.Lease.Cancel()
					return
				}
				runtime.Gosched()
			}
		}()
		rel, err := probeAggPlan(fact, dim, nil, nil, []string{"name"}, probeAggSpecs, false).Run(ctx)
		close(stop)
		<-watched
		if err == nil {
			continue // the probe outran the watcher
		}
		if !errors.Is(err, ErrCanceled) || rel != nil {
			t.Fatalf("mid-probe cancel: want (nil, ErrCanceled), got rel=%v err=%v", rel, err)
		}
		return
	}
	t.Fatal("no attempt observed a mid-probe cancel")
}

// TestFusedProbeAggAllocsDoNotScaleWithProbeRows: the sink allocates per
// morsel (a partial table, a selection bitmap) and per build row — never
// per probe row or per match, which is what the pair lists, the gathered
// join relation and a string-keyed map used to cost.  A morsel's group
// ids and match rows grow in worker scratch to the largest morsel's
// matches and are reused after that.  Grouped on the build side and
// globally.
func TestFusedProbeAggAllocsDoNotScaleWithProbeRows(t *testing.T) {
	dim := probeAggDim(t)
	small, large := fusedMatrixTable(t, 2*MorselRows, 0), fusedMatrixTable(t, 8*MorselRows, 0)
	for _, groupBy := range [][]string{{"name"}, nil} {
		allocs := func(fact *colstore.Table) float64 {
			a := probeAggPlan(fact, dim, nil, nil, groupBy, probeAggSpecs, false)
			if a.fusion() != "fused probe→agg" {
				t.Fatalf("GROUP BY %v does not fold the probe's matches", groupBy)
			}
			return testing.AllocsPerRun(5, func() {
				ctx := NewCtx()
				ctx.Lease = NewLease(1)
				if _, err := a.Run(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		s, l := allocs(small), allocs(large)
		t.Logf("GROUP BY %v: allocs/op %.0f at 2 morsels, %.0f at 8 morsels", groupBy, s, l)
		// Six more morsels, ~786K more matches: a per-morsel budget, nothing more.
		if perMorsel := (l - s) / 6; perMorsel > 64 {
			t.Fatalf("GROUP BY %v: allocations scale with probe rows: %.0f → %.0f (%.0f per extra morsel)", groupBy, s, l, perMorsel)
		}
		if l > 2000 {
			t.Fatalf("GROUP BY %v: fused probe→aggregate allocates %.0f objects per op", groupBy, l)
		}
	}
}

// TestFusedProbeAggScratchBoundedUnderDuplicateKeys: every probe row
// matches every build row, so a morsel yields nBuild × MorselRows
// matches — 4 and 32 times the fold's match buffer.  The fold sink is
// exempt from maxJoinPairs, so its memory must not grow with the matches:
// no worker scratch outgrows MorselRows matches, the bytes a run
// allocates do not grow with the build side's duplicates, and the sums
// are exact.
func TestFusedProbeAggScratchBoundedUnderDuplicateKeys(t *testing.T) {
	const nProbe = 2 * MorselRows
	probe := colstore.NewTable("probe", colstore.Schema{{Name: "pk", Type: colstore.Int64}, {Name: "pv", Type: colstore.Int64}})
	pk, pv, pvSum := make([]int64, nProbe), make([]int64, nProbe), int64(0)
	for i := range pk {
		pk[i], pv[i] = 1, int64(i%1000)
		pvSum += pv[i]
	}
	must(t, probe.Writer().Int64("pk", pk...).Int64("pv", pv...).Close())
	mustMerge(t, probe)

	var made []*morselScratch
	var mu sync.Mutex
	defer func() { scratchPool = sync.Pool{New: func() any { return new(morselScratch) }} }()
	run := func(nBuild, dop int) uint64 {
		build := colstore.NewTable("build", colstore.Schema{{Name: "bk", Type: colstore.Int64}, {Name: "bv", Type: colstore.Int64}})
		bk, bv := make([]int64, nBuild), make([]int64, nBuild)
		for i := range bk {
			bk[i], bv[i] = 1, int64(i%4)
		}
		must(t, build.Writer().Int64("bk", bk...).Int64("bv", bv...).Close())
		mustMerge(t, build)
		a := &HashAgg{Child: &Join{Left: &Scan{Source: probe}, Right: &Scan{Source: build},
			LeftKey: "pk", RightKey: "bk"}, GroupBy: []string{"bv"}, Aggs: []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "pv"}}}
		if a.fusion() != "fused probe→agg" {
			t.Fatal("the duplicate-key join does not fold its matches")
		}
		made = nil
		scratchPool = sync.Pool{New: func() any {
			sc := new(morselScratch)
			mu.Lock()
			defer mu.Unlock()
			made = append(made, sc)
			return sc
		}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, _ := runPlan(t, a, dop)
		runtime.ReadMemStats(&after)
		for _, sc := range made {
			if c := max(cap(sc.gids), cap(sc.probeAt), cap(sc.buildAt)); c > MorselRows {
				t.Fatalf("nBuild=%d dop=%d: a worker's match buffers hold %d matches, over MorselRows", nBuild, dop, c)
			}
		}
		per := int64(nBuild / 4)
		for g := 0; g < 4; g++ {
			if rel.N != 4 || rel.Cols[0].I[g] != int64(g) || rel.Cols[1].I[g] != nProbe*per || rel.Cols[2].I[g] != pvSum*per {
				t.Fatalf("nBuild=%d dop=%d: group %d wrong: %+v", nBuild, dop, g, rel.Cols)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, dop := range []int{1, 4} {
		small, large := run(4, dop), run(32, dop)
		t.Logf("dop=%d: %d B allocated at 4× MorselRows matches per morsel, %d B at 32×", dop, small, large)
		// 28 × 2 × MorselRows more matches: 44 MiB at 12 B each if buffered
		// whole.  The slack covers a few scratches remade after a GC.
		if large > small+8<<20 {
			t.Fatalf("dop=%d: allocated bytes grow with the matches: %d → %d", dop, small, large)
		}
	}
}

// TestRadixBitsSmallBuildIsOneTable: a build side inside the
// per-partition cache target is one table with no scatter pass, and the
// join answers exactly as the partitioned one does.
func TestRadixBitsSmallBuildIsOneTable(t *testing.T) {
	for n, want := range map[int]int{0: 0, partTargetRows - 1: 0, partTargetRows: 1, 3 * partTargetRows: 2} {
		if got := RadixBits(n); got != want {
			t.Fatalf("RadixBits(%d) = %d, want %d", n, got, want)
		}
	}
	fact := fusedMatrixTable(t, 2*MorselRows, 0)
	ctx := NewCtx()
	ctx.Lease = NewLease(2)
	j := &Join{Left: &Scan{Source: fact, Select: []string{"lowcard", "sorted"}}, Right: intDimSource(),
		LeftKey: "lowcard", RightKey: "k"}
	got, err := j.Run(ctx)
	must(t, err)
	var phases []string
	for _, r := range ctx.OpReports {
		phases = append(phases, r.Label)
	}
	if s := fmt.Sprint(phases); strings.Contains(s, "[partition]") || !strings.Contains(s, "[build]") {
		t.Fatalf("a 64-row build side must build one table without a scatter pass: %v", phases)
	}
	want, err := (&mapJoin{Left: j.Left, Right: j.Right, LeftKey: j.LeftKey, RightKey: j.RightKey}).Run(NewCtx())
	must(t, err)
	if !got.Equal(want) {
		t.Fatal("single-table join diverged from the map oracle")
	}
}
