package exec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Tests that pin the join collapse (ISSUE 19): there is one join, so the
// relation it returns equals the map oracle (join_oracle_test.go) for
// every key kind, size, duplicate pattern and probe source; EXPLAIN's
// fusion marker is exactly what Run does; and a cross product is refused
// with a typed error instead of exhausting memory.

// Key kinds of the matrix: how each side's key column reaches the join.
// A string key is codes on every kind; the kinds differ in whose
// dictionary the codes index and how it is stored.
const (
	kindBigint     = "bigint"
	kindSharedDict = "shared-dict"       // coded build relation over the probe column's own dictionary
	kindTwoDicts   = "two-dicts"         // two sealed tables, untranslatable values on both sides
	kindLive       = "unsealed×unsealed" // append-order dictionaries over raw code segments
	kindSealedLive = "sealed-probe×unsealed-build"
	kindLiveSealed = "unsealed-probe×sealed-build"
)

var joinKinds = []string{kindBigint, kindSharedDict, kindTwoDicts, kindLive, kindSealedLive, kindLiveSealed}

// kindSeals reports whether a key kind seals its probe and build tables.
func kindSeals(kind string) (probe, build bool) {
	return kind != kindLive && kind != kindLiveSealed, kind != kindLive && kind != kindSealedLive
}

// Duplicate patterns of the build key.
const (
	dupNone  = "distinct"
	dupAll   = "all-duplicate" // every build row carries one key
	dupSeven = "1-in-7"
)

var joinDups = []string{dupNone, dupAll, dupSeven}

// Probe sources.
const (
	srcScan   = "scan"   // bare Scan: fuses when the key allows it
	srcOpaque = "opaque" // hidden scan: always the relation source
	srcDelta  = "delta"  // bare Scan over main + live delta + tombstones
)

var joinSources = []string{srcScan, srcOpaque, srcDelta}

// joinKeyName spells key k as a string; keys past the build range dangle.
func joinKeyName(k int64) string { return fmt.Sprintf("key%07d", k) }

// oneJoinTables builds the probe and build tables of one matrix cell,
// sealed or never sealed.  Build keys follow dup over [0, nBuild); probe
// keys cycle over twice that range, so half of them dangle — except
// against an all-duplicate build key, where only every stride-th probe
// row matches and the output stays near 200K rows however large the
// build side is.
func oneJoinTables(t testing.TB, nProbe, nBuild int, dup string, stringKeys, delta, seal bool) (probe, build *colstore.Table) {
	t.Helper()
	keyType := colstore.Int64
	if stringKeys {
		keyType = colstore.String
	}
	bkeys := make([]int64, nBuild)
	for i := range bkeys {
		switch {
		case dup == dupAll:
			bkeys[i] = 3
		case dup == dupSeven && i%7 == 6:
			bkeys[i] = int64(i - 1)
		default:
			bkeys[i] = int64(i)
		}
	}
	stride := 1 + nProbe*nBuild/200_000
	pkeys := make([]int64, nProbe)
	for i := range pkeys {
		pkeys[i] = int64(i*7) % int64(2*nBuild+1)
		if dup == dupAll {
			if pkeys[i] = 3; i%stride != 0 {
				pkeys[i] = 4 + int64(i%5)
			}
		}
	}
	mk := func(name, key, payload string, keys []int64) *colstore.Table {
		tab := colstore.NewTable(name, colstore.Schema{{Name: key, Type: keyType}, {Name: payload, Type: colstore.Int64}})
		pay := make([]int64, len(keys))
		for i := range pay {
			pay[i] = int64(i) * 7919 % 100_003 // scattered: seals bit-packed, cheap to point-read
		}
		w := tab.Writer().Int64(payload, pay...)
		if stringKeys {
			names := make([]string, len(keys))
			for i, k := range keys {
				names[i] = joinKeyName(k)
			}
			w.String(key, names...)
		} else {
			w.Int64(key, keys...)
		}
		must(t, w.Close())
		if seal {
			mustMerge(t, tab)
		}
		return tab
	}
	probe, build = mk("probe", "pk", "pv", pkeys), mk("build", "bk", "bv", bkeys)
	if delta {
		// A live delta tail (new and old keys) plus tombstones over both.
		lsn := uint64(1)
		for i := 0; i < 40; i++ {
			var key any = int64(i % 9)
			if stringKeys {
				key = joinKeyName(int64(i % 9))
			}
			_, err := probe.ApplyInsert(int64(i+1), lsn, key, int64(-i))
			must(t, err)
			lsn++
		}
		for i := 0; i < probe.Rows(); i += 11 {
			must(t, probe.ApplyDelete(100+int64(i), lsn, probe.RowID(i)))
			lsn++
		}
	}
	return probe, build
}

// oneJoinPlans returns the production plan and its map-oracle twin for one
// matrix cell.
func oneJoinPlans(t testing.TB, kind, source string, probe, build *colstore.Table) (plan *Join, oracle Node) {
	t.Helper()
	scan := func(tab *colstore.Table) *Scan { return &Scan{Source: tab} }
	var right Node = scan(build)
	if kind == kindSharedDict {
		// The build relation is coded over the probe column's own
		// dictionary; build values it lacks cannot be spelled and drop out.
		pc, err := probe.StrCol("pk")
		must(t, err)
		raw, err := scan(build).Run(NewCtx())
		must(t, err)
		coded := &Relation{Cols: []Col{{Name: "bk", Type: colstore.String, Dict: pc.Dict(), I: []int64{}}, {Name: "bv", Type: colstore.Int64, I: []int64{}}}}
		codeOf := make(map[string]int64, len(pc.Dict()))
		for c, v := range pc.Dict() {
			codeOf[v] = int64(c)
		}
		for i := 0; i < raw.N; i++ {
			if code, ok := codeOf[raw.Cols[0].Str(i)]; ok {
				coded.Cols[0].I = append(coded.Cols[0].I, code)
				coded.Cols[1].I = append(coded.Cols[1].I, raw.Cols[1].I[i])
			}
		}
		coded.N = len(coded.Cols[0].I)
		right = relNode{coded}
	}
	var l Node = scan(probe)
	if source == srcOpaque {
		l = opaque(l)
	}
	plan = &Join{Left: l, Right: right, LeftKey: "pk", RightKey: "bk"}
	oracle = &mapJoin{Left: scan(probe), Right: right, LeftKey: "pk", RightKey: "bk"}
	return plan, oracle
}

// ranFused reports whether the join's OpReports hold a fused probe phase.
func ranFused(ctx *Ctx) bool {
	for _, op := range ctx.OpReports {
		if strings.HasSuffix(op.Label, "[fused probe]") || strings.HasSuffix(op.Label, "[fused probe→agg]") {
			return true
		}
	}
	return false
}

// TestOneJoinMatchesMapOracle: relation == the map oracle, and relation +
// Meter identical at DOP {1, 2, 8}, over key kind × sizes straddling every
// retired row threshold (2^16 and 2^18 combined rows, 4096 build rows) ×
// duplicate pattern × probe source.  Totals 0 and 1 run the full cross
// product; the eighteen large size combinations each run a rotating sixth
// of it, so every (kind, duplicates, source) triple meets two large sizes
// and every size meets six triples.
func TestOneJoinMatchesMapOracle(t *testing.T) {
	type size struct{ probe, build int }
	var sizes []size
	for _, total := range []int{0, 1, 1<<16 - 1, 1 << 16, 1<<18 - 1, 1<<18 + 1} {
		for _, build := range []int{0, 5, 4095, 4096, 100_000} {
			if build <= total && (total > 1 || build == 0) {
				sizes = append(sizes, size{total - build, build})
			}
		}
	}
	if len(sizes) != 20 {
		t.Fatalf("size grid has %d cells, want 20", len(sizes))
	}
	type tableKey struct {
		size
		dup                   string
		strings, live, sealed bool
	}
	cell := 0
	for si, sz := range sizes {
		tables := map[tableKey][2]*colstore.Table{}
		for _, kind := range joinKinds {
			for _, dup := range joinDups {
				for _, source := range joinSources {
					cell++
					if sz.probe+sz.build > 1 && (si+cell)%9 != 0 {
						continue
					}
					pair := func(sealed bool) [2]*colstore.Table {
						tk := tableKey{sz, dup, kind != kindBigint, source == srcDelta, sealed}
						tabs, ok := tables[tk]
						if !ok {
							tabs[0], tabs[1] = oneJoinTables(t, sz.probe, sz.build, dup, tk.strings, tk.live, sealed)
							tables[tk] = tabs
						}
						return tabs
					}
					sealProbe, sealBuild := kindSeals(kind)
					name := fmt.Sprintf("%d+%d/%s/%s/%s", sz.probe, sz.build, kind, dup, source)
					plan, oracle := oneJoinPlans(t, kind, source, pair(sealProbe)[0], pair(sealBuild)[1])
					want, _ := runPlan(t, oracle, 1)
					var base *Relation
					var baseCtx *Ctx
					for _, dop := range []int{1, 2, 8} {
						got, ctx := runPlan(t, plan, dop)
						if !got.Equal(want) {
							t.Fatalf("%s dop=%d: join diverged from the map oracle (N %d vs %d)", name, dop, got.N, want.N)
						}
						if marked := plan.fusion() != ""; marked != ranFused(ctx) {
							t.Fatalf("%s dop=%d: EXPLAIN marked fused=%v, ran fused=%v", name, dop, marked, ranFused(ctx))
						}
						if base == nil {
							base, baseCtx = got, ctx
						} else if !reflect.DeepEqual(got, base) || ctx.Meter.Snapshot() != baseCtx.Meter.Snapshot() {
							t.Fatalf("%s dop=%d: relation or counters differ from DOP 1:\n%+v\n%+v", name, dop, ctx.Meter.Snapshot(), baseCtx.Meter.Snapshot())
						}
					}
					if sz.probe > 0 && sz.build > 0 && want.N == 0 && kind != kindSharedDict {
						t.Fatalf("%s: degenerate cell, no matches", name)
					}
				}
			}
		}
	}
}

// TestExplainFusionIsWhatRuns: a join's OpReports contain a fused probe
// phase iff exec.Explain marked the node — at every probe size (the
// retired run-time bypass let EXPLAIN print [fused] for a join that then
// materialized its probe side) and every key kind, under both sinks; and
// a bare scan fuses whatever its key kind and storage.
func TestExplainFusionIsWhatRuns(t *testing.T) {
	for _, rows := range []int{5, 3_000, 70_000, 300_000} {
		for _, kind := range []string{kindBigint, kindTwoDicts, kindLive} {
			sealed, _ := kindSeals(kind)
			probe, build := oneJoinTables(t, rows, 50, dupNone, kind != kindBigint, false, sealed)
			plan, _ := oneJoinPlans(t, kind, srcScan, probe, build)
			var agg Node = &HashAgg{Child: plan, GroupBy: []string{"bv"}, Aggs: []expr.AggSpec{{Func: expr.AggCount}}}
			for sink, node := range map[string]Node{"pairs": plan, "fold": agg} {
				name := fmt.Sprintf("rows=%d/%s/%s", rows, kind, sink)
				marked := strings.Contains(Explain(node), "[fused")
				_, ctx := runPlan(t, node, 2)
				if ranFused(ctx) != marked {
					t.Errorf("%s: EXPLAIN marks fused=%v but the run's phases say %v\n%s", name, marked, ranFused(ctx), Explain(node))
				}
				if !marked {
					t.Errorf("%s: a bare scan's probe must fuse on every key kind", name)
				}
			}
		}
	}
}

// TestJoinResultCap: a duplicate-key join just under the pair cap answers
// as the oracle; just over it, it returns ErrResultTooLarge — at every
// DOP, from either probe source, with identical counters up to the stop.
// The fold sink materializes nothing and is exempt.
func TestJoinResultCap(t *testing.T) {
	defer func(old int) { maxJoinPairs = old }(maxJoinPairs)
	// 3 morsels of probe rows, every sixth matching all 8 build rows.
	const nProbe, nBuild = 2*MorselRows + 1000, 8
	probeTab, buildTab := oneJoinTables(t, nProbe, nBuild, dupAll, false, false, true)
	join := func(hide bool) *Join {
		var left Node = &Scan{Source: probeTab, Preds: []expr.Pred{{Col: "pk", Op: vec.EQ, Val: expr.IntVal(3)}}}
		if hide {
			left = opaque(left)
		}
		return &Join{Left: left, Right: &Scan{Source: buildTab}, LeftKey: "pk", RightKey: "bk"}
	}
	want, _ := runPlan(t, &mapJoin{Left: join(true).Left, Right: join(true).Right, LeftKey: "pk", RightKey: "bk"}, 1)
	pairs := want.N
	if pairs < 2*MorselRows {
		t.Fatalf("degenerate test: %d pairs", pairs)
	}

	maxJoinPairs = pairs // exactly at the cap: still answers
	for _, hide := range []bool{false, true} {
		if got, _ := runPlan(t, join(hide), 4); got.N != pairs || !reflect.DeepEqual(got, want) {
			t.Fatalf("hide=%v: join at the cap diverged from the oracle (N=%d)", hide, got.N)
		}
	}

	// Over the cap — by one pair, and by so much that the first morsel
	// alone overflows and must stop mid-morsel.
	for _, limit := range []int{pairs - 1, 1000} {
		maxJoinPairs = limit
		for _, hide := range []bool{false, true} {
			var base *Ctx
			for _, dop := range []int{1, 2, 8} {
				ctx := NewCtx()
				ctx.Lease = NewLease(dop)
				rel, err := join(hide).Run(ctx)
				if !errors.Is(err, ErrResultTooLarge) || rel != nil {
					t.Fatalf("cap=%d hide=%v dop=%d: want (nil, ErrResultTooLarge), got N=%v err=%v", limit, hide, dop, rel, err)
				}
				if base == nil {
					base = ctx
				} else if ctx.Meter.Snapshot() != base.Meter.Snapshot() {
					t.Fatalf("cap=%d hide=%v dop=%d: counters up to the stop differ from DOP 1:\n%+v\n%+v",
						limit, hide, dop, ctx.Meter.Snapshot(), base.Meter.Snapshot())
				}
			}
		}
		// The fold sink is exempt: the same join under an aggregate answers.
		agg := &HashAgg{Child: join(false), GroupBy: []string{"bv"}, Aggs: []expr.AggSpec{{Func: expr.AggCount}}}
		rel, ctx := runPlan(t, agg, 2)
		if rel.N != nBuild || !ranFused(ctx) {
			t.Fatalf("cap=%d: fold sink must answer past the pair cap (groups=%d fused=%v)", limit, rel.N, ranFused(ctx))
		}
	}
}
