package exec

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/expr"
	"repro/internal/vec"
	"repro/internal/workload"
)

// Span-wise probe key resolution (join.go's resolve).  The fused probe
// looks each distinct code of a dictionary span up once, each run of an
// RLE span once, and every other row on its own; the pass must answer
// exactly what the relation probe (every row looked up) and the map
// oracle answer, meter identically at every DOP, and bill the lookups it
// made.

const probeKeyRows = MorselRows + MorselRows/8 // two morsels, the second partial

// probeKeyValues draws the probe key of every row for one layout: a few
// hundred values spread too wide to bit-pack (dict), sorted long runs
// (rle), or a dense range with too many values for a dictionary
// (bitpack).  The tail layout is dict's.
func probeKeyValues(layout string, n int) []int64 {
	rng := workload.NewRNG(uint64(len(layout)) * 7919)
	keys := make([]int64, n)
	for i := range keys {
		switch layout {
		case "rle":
			keys[i] = int64(i/500) * 3
		case "bitpack":
			keys[i] = int64(rng.Intn(60_000))
		default:
			keys[i] = int64(rng.Intn(300)) * 1_000_003
		}
	}
	return keys
}

func probeKeyName(k int64) string { return fmt.Sprintf("k%011d", k) }

// probeKeyTable is the probe side: the BIGINT key pk and its string twin
// ps, a probe-side group pg, a value pv and a predicate column sel
// (0..99).  The tail layout seals its first morsel and leaves the rest an
// unsealed delta tail.
func probeKeyTable(t testing.TB, layout string) (*colstore.Table, []int64, []int64) {
	t.Helper()
	keys := probeKeyValues(layout, probeKeyRows)
	rng := workload.NewRNG(99)
	sel := make([]int64, len(keys))
	for i := range sel {
		sel[i] = int64(rng.Intn(100))
	}
	tab := colstore.NewTable("probe", colstore.Schema{
		{Name: "pk", Type: colstore.Int64}, {Name: "ps", Type: colstore.String},
		{Name: "pg", Type: colstore.Int64}, {Name: "pv", Type: colstore.Int64}, {Name: "sel", Type: colstore.Int64},
	})
	load := func(lo, hi int) {
		names, pg, pv := make([]string, hi-lo), make([]int64, hi-lo), make([]int64, hi-lo)
		for i := lo; i < hi; i++ {
			names[i-lo], pg[i-lo], pv[i-lo] = probeKeyName(keys[i]), int64(i%7), int64(i%1000)-250
		}
		must(t, tab.Writer().Int64("pk", keys[lo:hi]...).String("ps", names...).
			Int64("pg", pg...).Int64("pv", pv...).Int64("sel", sel[lo:hi]...).Close())
	}
	if layout == "tail" {
		load(0, MorselRows)
		mustMerge(t, tab)
		load(MorselRows, len(keys))
	} else {
		load(0, len(keys))
		mustMerge(t, tab)
	}
	return tab, keys, sel
}

// probeKeyBuild is the build side over the probe's distinct keys: once
// each (unique), twice and every fifth thrice (duplicated), every other
// one plus keys no probe row has (absent), a third each once, twice and
// not at all, so one span holds collapsed, chained and absent keys
// (mixed), or once each keyed by its string with extra strings, so the
// build codes translate ([translate]).
func probeKeyBuild(t testing.TB, kind string, probeKeys []int64) *colstore.Table {
	t.Helper()
	distinct := slices.Compact(slices.Sorted(slices.Values(probeKeys)))
	var bk []int64
	for i, k := range distinct {
		switch kind {
		case "duplicated":
			bk = append(bk, k, k)
			if i%5 == 0 {
				bk = append(bk, k)
			}
		case "absent":
			if i%2 == 0 {
				bk = append(bk, k)
			}
			bk = append(bk, -1-k)
		case "mixed":
			bk = append(bk, slices.Repeat([]int64{k}, i%3)...)
		default:
			bk = append(bk, k)
		}
	}
	if kind == "varchar" {
		bk = append(bk, -5, -7)
		slices.Reverse(bk) // the build dictionary's order differs from the probe's
	}
	names, bg, bv := make([]string, len(bk)), make([]int64, len(bk)), make([]int64, len(bk))
	for i, k := range bk {
		names[i], bg[i], bv[i] = probeKeyName(k), (k/3)%5, int64(i%1000)-300
	}
	tab := colstore.NewTable("build", colstore.Schema{
		{Name: "bk", Type: colstore.Int64}, {Name: "bs", Type: colstore.String},
		{Name: "bg", Type: colstore.Int64}, {Name: "bv", Type: colstore.Int64},
	})
	must(t, tab.Writer().Int64("bk", bk...).String("bs", names...).Int64("bg", bg...).Int64("bv", bv...).Close())
	mustMerge(t, tab)
	return tab
}

// expectedProbeKeys counts the lookups a span-wise probe of col makes
// over the rows sel selects, morsel by morsel and span by span, from the
// stored keys alone: a dictionary span's distinct selected keys, an RLE
// span's runs holding a selected row, any other span's selected rows.
func expectedProbeKeys(col *colstore.IntColumn, selected func(int) bool) (rows, keys int) {
	for lo := 0; lo < col.Len(); lo += MorselRows {
		hi := min(lo+MorselRows, col.Len())
		for _, sp := range col.AppendSpans(nil, lo, hi) {
			seen := map[int64]bool{}
			lastRun, prev := -1, int64(0)
			for r, run := sp.A, 0; r < sp.B; r++ {
				v := col.Get(r)
				if r > sp.A && v != prev {
					run++
				}
				prev = v
				if !selected(r) {
					continue
				}
				rows++
				switch sp.Enc {
				case compress.Dict:
					if !seen[v] {
						seen[v] = true
						keys++
					}
				case compress.RLE:
					if run != lastRun {
						lastRun = run
						keys++
					}
				default:
					keys++
				}
			}
		}
	}
	return rows, keys
}

// lookupCounts returns the join's lookup phase counts from a run's trace.
func lookupCounts(t *testing.T, ctx *Ctx) ProbeCounts {
	t.Helper()
	for _, op := range ctx.OpReports {
		if op.Probe != nil {
			if op.Work != ProbeWork(*op.Probe) {
				t.Fatalf("%s: billed %+v, ProbeWork at its counts is %+v", op.Label, op.Work, ProbeWork(*op.Probe))
			}
			return *op.Probe
		}
	}
	t.Fatal("no lookup phase in the trace")
	return ProbeCounts{}
}

// TestFusedProbeResolvesEachKeyOnce: over every probe-key layout, build
// key multiplicity, sink, probe selectivity and DOP, the fused probe's
// relation equals the relation probe's (the same plan with its probe
// scan hidden) and the map oracle's, its relation and counters are
// identical at DOP 1 and 8, its lookup phase resolves exactly the
// distinct selected keys of each span, and every fold sink's lookup
// counts are the pair sink's.
func TestFusedProbeResolvesEachKeyOnce(t *testing.T) {
	sinks := []struct {
		name    string
		groupBy []string // nil: the pair sink
	}{{"pairs", nil}, {"build-group", []string{"bg"}}, {"probe-group", []string{"pg"}}, {"global", []string{}}}
	aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "pv"}, {Func: expr.AggSum, Col: "bv"}}
	wantEnc := map[string]string{"dict": "dict", "rle": "rle", "bitpack": "bitpack", "tail": "dict"}
	for _, layout := range []string{"dict", "rle", "bitpack", "tail"} {
		probe, keys, selCol := probeKeyTable(t, layout)
		pk, err := probe.IntCol("pk")
		must(t, err)
		if segs := pk.Storage().Segments; segs[wantEnc[layout]] == 0 || (layout == "tail") != (segs["raw"] > 0) {
			t.Fatalf("%s: the probe key sealed as %v", layout, segs)
		}
		for _, build := range []string{"unique", "duplicated", "absent", "mixed", "varchar"} {
			bt := probeKeyBuild(t, build, keys)
			lk, rk := "pk", "bk"
			keyCol := pk
			if build == "varchar" {
				lk, rk = "ps", "bs"
				ps, err := probe.StrCol("ps")
				must(t, err)
				keyCol = ps.CodeColumn()
			}
			for _, pct := range []int64{100, 1, 50} {
				var preds []expr.Pred
				if pct < 100 {
					preds = []expr.Pred{{Col: "sel", Op: vec.LT, Val: expr.IntVal(pct)}}
				}
				wantRows, wantKeys := expectedProbeKeys(keyCol, func(r int) bool { return selCol[r] < pct })
				var pairCounts ProbeCounts // sinks[0]'s
				for _, sink := range sinks {
					groupBy := sink.groupBy
					name := fmt.Sprintf("%s/%s/sel=%d%%/%s", layout, build, pct, sink.name)
					scan := func() Node {
						return &Scan{Source: probe, Select: []string{lk, "pg", "pv"}, Preds: preds}
					}
					buildScan := &Scan{Source: bt, Select: []string{rk, "bg", "bv"}}
					// plan wraps a join of left in the sink; mapPlan is the oracle.
					plan := func(left Node) Node {
						j := &Join{Left: left, Right: buildScan, LeftKey: lk, RightKey: rk}
						if groupBy == nil {
							return j
						}
						return &HashAgg{Child: j, GroupBy: groupBy, Aggs: aggs}
					}
					var mapPlan Node = &mapJoin{Left: scan(), Right: buildScan, LeftKey: lk, RightKey: rk}
					if groupBy != nil {
						mapPlan = &mapAgg{Child: mapPlan, GroupBy: groupBy, Aggs: aggs}
					}
					fused := plan(scan())
					want := "fused"
					if groupBy != nil {
						want = "fused probe→agg"
					}
					if got := fused.(fuser).fusion(); got != want {
						t.Fatalf("%s: plans %q, want %q", name, got, want)
					}
					rel1, ctx1 := runPlan(t, fused, 1)
					rel8, ctx8 := runPlan(t, fused, 8)
					if !reflect.DeepEqual(rel1, rel8) || ctx1.Meter.Snapshot() != ctx8.Meter.Snapshot() {
						t.Fatalf("%s: DOP 1 and 8 differ", name)
					}
					relRel, relCtx := runPlan(t, plan(opaque(scan())), 8)
					mapRel, _ := runPlan(t, mapPlan, 1)
					if !rel1.Equal(relRel) || !rel1.Equal(mapRel) {
						t.Fatalf("%s: fused %d rows, relation probe %d, map oracle %d, or rows differ", name, rel1.N, relRel.N, mapRel.N)
					}
					got, all := lookupCounts(t, ctx1), lookupCounts(t, relCtx)
					if got.Rows != wantRows || got.Keys != wantKeys {
						t.Fatalf("%s: looked up %d keys over %d rows, want %d over %d", name, got.Keys, got.Rows, wantKeys, wantRows)
					}
					if got.Matches != all.Matches || all.Keys != wantRows || (groupBy == nil && got.Matches != rel1.N) {
						t.Fatalf("%s: fused %+v vs relation probe %+v", name, got, all)
					}
					if groupBy == nil {
						pairCounts = got
					} else if got != pairCounts {
						t.Fatalf("%s: the fold sink counts %+v, the pair sink %+v", name, got, pairCounts)
					}
				}
			}
		}
	}
}

// FuzzFusedProbe draws a probe key multiset (random keys or runs of
// one), a sealed table with an unsealed tail or an unsealed one, a build
// side whose keys repeat or are absent, and a random selection, and
// checks the fused probe's pairs and folds against the relation probe's,
// and each fold's lookup counts against the fused pair sink's.
func FuzzFusedProbe(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint16(200), uint8(0), uint8(1), true, uint8(100))
	f.Add(uint64(2), uint16(4000), uint16(50), uint8(40), uint8(3), true, uint8(30))
	f.Add(uint64(3), uint16(900), uint16(1500), uint8(0), uint8(2), false, uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, n, keySpace uint16, runLen, dups uint8, sealed bool, selPct uint8) {
		rng := workload.NewRNG(seed)
		rows, space := 1+int(n)%5000, 1+int(keySpace)%2000
		keys, sel, pv := make([]int64, rows), make([]int64, rows), make([]int64, rows)
		for i := range keys {
			switch {
			case runLen > 0 && i%int(runLen) != 0:
				keys[i] = keys[i-1]
			default:
				keys[i] = int64(rng.Intn(space)) * 17
			}
			sel[i], pv[i] = int64(rng.Intn(100)), int64(rng.Intn(1000))-500
		}
		probe := colstore.NewTable("probe", colstore.Schema{
			{Name: "pk", Type: colstore.Int64}, {Name: "sel", Type: colstore.Int64}, {Name: "pv", Type: colstore.Int64}})
		tail := rows
		if sealed {
			tail = rows * 2 / 3
		}
		must(t, probe.Writer().Int64("pk", keys[:tail]...).Int64("sel", sel[:tail]...).Int64("pv", pv[:tail]...).Close())
		if sealed {
			mustMerge(t, probe)
			must(t, probe.Writer().Int64("pk", keys[tail:]...).Int64("sel", sel[tail:]...).Int64("pv", pv[tail:]...).Close())
		}
		var bk, bg []int64
		for k := 0; k < space; k++ {
			for range rng.Intn(int(dups%4) + 1) { // 0: absent
				bk, bg = append(bk, int64(k)*17), append(bg, int64(rng.Intn(6)))
			}
		}
		if len(bk) == 0 {
			bk, bg = []int64{-1}, []int64{0} // no probe key has a build row
		}
		build := colstore.NewTable("build", colstore.Schema{{Name: "bk", Type: colstore.Int64}, {Name: "bg", Type: colstore.Int64}})
		must(t, build.Writer().Int64("bk", bk...).Int64("bg", bg...).Close())
		mustMerge(t, build)

		preds := []expr.Pred{{Col: "sel", Op: vec.LT, Val: expr.IntVal(int64(selPct % 101))}}
		aggs := []expr.AggSpec{{Func: expr.AggCount}, {Func: expr.AggSum, Col: "pv"}}
		var pairCounts ProbeCounts // the pair sink's, run first
		for _, groupBy := range [][]string{nil, {"bg"}, {}} {
			plan := func(hide bool) Node {
				var left Node = &Scan{Source: probe, Select: []string{"pk", "pv"}, Preds: preds}
				if hide {
					left = opaque(left)
				}
				j := &Join{Left: left, Right: &Scan{Source: build}, LeftKey: "pk", RightKey: "bk"}
				if groupBy == nil {
					return j
				}
				return &HashAgg{Child: j, GroupBy: groupBy, Aggs: aggs}
			}
			got, ctx := runPlan(t, plan(false), 2)
			want, _ := runPlan(t, plan(true), 2)
			if !got.Equal(want) {
				t.Fatalf("GROUP BY %v: fused %d rows, relation probe %d, or rows differ", groupBy, got.N, want.N)
			}
			if counts := lookupCounts(t, ctx); groupBy == nil {
				pairCounts = counts
			} else if counts != pairCounts {
				t.Fatalf("GROUP BY %v: the fold counts %+v, the pair sink %+v", groupBy, counts, pairCounts)
			}
		}
	})
}
