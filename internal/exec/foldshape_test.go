package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/colstore"
	"repro/internal/expr"
	"repro/internal/vec"
)

// A group table keeps only the accumulators its aggregates' functions
// need, so an aggregate's column must not depend on which other
// aggregates share its query: a fold or merge that reads a missing
// accumulator, or another aggregate's, shows up as a column that changes
// when its siblings do.

// siblingSchema: ck is the row number, g the group key (53 groups), p the
// filter column — 0 on the whole first morsel, 0 on every 16th row after
// it — so one window is swept dense and the rest fold sparse; iv is a
// BIGINT in runs of 100 (RLE segments), fv a DOUBLE.
var siblingSchema = colstore.Schema{
	{Name: "ck", Type: colstore.Int64},
	{Name: "g", Type: colstore.Int64},
	{Name: "p", Type: colstore.Int64},
	{Name: "iv", Type: colstore.Int64},
	{Name: "fv", Type: colstore.Float64},
}

func siblingRow(i int) []any {
	p := int64(i % 16)
	if i < MorselRows {
		p = 0
	}
	return []any{
		int64(i),
		int64(i*31) % 53,
		p,
		int64(i/100%37)*977 - 20000,
		math.Ldexp(float64((i*40503)%9973)+0.5, i%29-14),
	}
}

// TestAggColumnIndependentOfSiblings: over feeder {scan, probe,
// relation} × GROUP BY {none, g} × {sealed, live delta} × DOP {1, 8},
// every aggregate of {COUNT, SUM, AVG, MIN, MAX} × {BIGINT, DOUBLE}
// returns the same column, bit for bit, computed beside every other
// aggregate its feeder folds as computed alone (at DOP 1, so the check
// crosses DOP as well).  The probe
// feeder folds BIGINT inputs only, so its DOUBLE aggregates are checked
// beside the full set through the pair path.
func TestAggColumnIndependentOfSiblings(t *testing.T) {
	const base = MorselRows + 5000
	tw := newMatrixTable(t, siblingSchema, siblingRow, base)
	if iv, err := tw.flat.IntCol("iv"); err != nil || iv.Storage().Segments["rle"] == 0 {
		t.Fatalf("iv did not seal as runs (%v): the closed form goes untested", err)
	}
	dim := colstore.NewTable("dim", colstore.Schema{{Name: "k", Type: colstore.Int64}})
	dimKeys := make([]int64, 53)
	for i := range dimKeys {
		dimKeys[i] = int64(i)
	}
	must(t, dim.Writer().Int64("k", dimKeys...).Close())
	mustMerge(t, dim)

	var all, ints []expr.AggSpec
	for _, col := range []string{"iv", "fv"} {
		for _, fn := range []expr.AggFunc{expr.AggCount, expr.AggSum, expr.AggAvg, expr.AggMin, expr.AggMax} {
			spec := expr.AggSpec{Func: fn, Col: col}
			all = append(all, spec)
			if col == "iv" {
				ints = append(ints, spec)
			}
		}
	}
	plan := func(feeder string, src *colstore.Table, groupBy []string, aggs []expr.AggSpec) *HashAgg {
		scan := &Scan{Source: src, Select: []string{"g", "iv", "fv"}, Preds: []expr.Pred{{Col: "p", Op: vec.EQ, Val: expr.IntVal(0)}}}
		var child Node = scan
		switch feeder {
		case "probe":
			child = &Join{Left: scan, Right: &Scan{Source: dim}, LeftKey: "g", RightKey: "k"}
		case "relation":
			child = opaque(scan)
		}
		return &HashAgg{Child: child, GroupBy: groupBy, Aggs: aggs}
	}
	check := func(state string) {
		for _, feeder := range []string{"scan", "probe", "relation"} {
			{
				src := tw.flat
				for _, groupBy := range [][]string{nil, {"g"}} {
					sets := [][]expr.AggSpec{all}
					if feeder == "probe" {
						sets = append(sets, ints)
					}
					for si, set := range sets {
						together := plan(feeder, src, groupBy, set)
						want := map[string]string{"scan": "fused", "probe": "fused probe→agg"}[feeder]
						if feeder == "probe" && si == 0 {
							want = "" // a DOUBLE input runs the pair path
						}
						if got := together.fusion(); got != want {
							t.Fatalf("%s %s: feeder %q, want %q", feeder, state, got, want)
						}
						k := len(groupBy)
						alone := make([]*Relation, len(set))
						for ai, spec := range set {
							alone[ai], _ = runPlan(t, plan(feeder, src, groupBy, []expr.AggSpec{spec}), 1)
						}
						for _, dop := range []int{1, 8} {
							beside, _ := runPlan(t, together, dop)
							if beside.N == 0 {
								t.Fatalf("%s %s GROUP BY %v: no groups", feeder, state, groupBy)
							}
							for ai, spec := range set {
								name := fmt.Sprintf("%s/GROUP BY %v/%s/dop=%d/%s beside %d", feeder, groupBy, state, dop, spec, len(set))
								if err := sameAggRelation(alone[ai], &Relation{N: beside.N, Cols: append(beside.Cols[:k:k], beside.Cols[k+ai])}); err != nil {
									t.Fatalf("%s: differs from the aggregate alone at DOP 1: %v", name, err)
								}
							}
						}
					}
				}
			}
		}
	}
	check("sealed")
	var del []int
	for i := 0; i < 40; i++ {
		del = append(del, i*10, base+i*7)
	}
	tw.mutate(t, 500, del)
	check("live")
}
