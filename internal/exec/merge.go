package exec

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/colstore"
	"repro/internal/energy"
)

// Partial-aggregate merging shared by the distributed shipping strategies
// (internal/dist pushdown) and usable by any caller that combines
// two-column (group, SUM) partial relations.  HashAgg merges its richer
// per-morsel tables internally (agg.go groupTable.mergeFrom); this is the
// relation-shaped variant that crosses subsystem (and wire) boundaries.

// mergeAccum is one group's running total across partials, plus the group
// value to emit (the map key for floats is the printed form).
type mergeAccum struct {
	out any
	i   int64
	f   float64
}

// MergePartials combines partial aggregates into the final relation: each
// partial must have exactly two columns (group key, partial SUM).  Groups
// are summed across partials in slice order and emitted sorted ascending
// by key — the same bytes regardless of which partition produced which
// partial.  groupName names the output key column.  The returned counters
// price the merge; the caller charges them into its Ctx.
func MergePartials(groupName string, parts []*Relation) (*Relation, energy.Counters, error) {
	if len(parts) == 0 {
		return nil, energy.Counters{}, fmt.Errorf("exec: no partials to merge")
	}
	for _, part := range parts {
		if len(part.Cols) != 2 {
			return nil, energy.Counters{}, fmt.Errorf("exec: partial has %d columns, want 2", len(part.Cols))
		}
	}
	groupType := parts[0].Cols[0].Type
	sumCol := &parts[0].Cols[1]
	sums := make(map[any]*mergeAccum)
	keys := make([]any, 0, 16)
	var tuples uint64
	for _, part := range parts {
		g, s := &part.Cols[0], &part.Cols[1]
		for row := 0; row < part.N; row++ {
			var key, out any
			switch groupType {
			case colstore.Int64:
				key, out = g.I[row], g.I[row]
			case colstore.Float64:
				// Map by the printed form, the same identity HashAgg
				// groups by — a raw NaN key would never be found again
				// (NaN != NaN).
				key = strconv.FormatFloat(g.F[row], 'g', -1, 64)
				out = g.F[row]
			default:
				key, out = g.Str(row), g.Str(row)
			}
			a, ok := sums[key]
			if !ok {
				a = &mergeAccum{out: out}
				sums[key] = a
				keys = append(keys, key)
			}
			if s.Type == colstore.Int64 {
				a.i += s.I[row]
			} else {
				a.f += s.F[row]
			}
		}
		tuples += uint64(part.N)
	}

	sort.Slice(keys, func(a, b int) bool {
		switch groupType {
		case colstore.Int64:
			return sums[keys[a]].out.(int64) < sums[keys[b]].out.(int64)
		case colstore.Float64:
			// Total order: NaN sorts first so the output stays
			// deterministic regardless of first-seen order.
			x, y := sums[keys[a]].out.(float64), sums[keys[b]].out.(float64)
			if math.IsNaN(x) {
				return !math.IsNaN(y)
			}
			return x < y
		default:
			return sums[keys[a]].out.(string) < sums[keys[b]].out.(string)
		}
	})

	gc := Col{Name: groupName, Type: groupType}
	sc := Col{Name: sumCol.Name, Type: sumCol.Type}
	var strs []string
	for _, key := range keys {
		a := sums[key]
		switch groupType {
		case colstore.Int64:
			gc.I = append(gc.I, a.out.(int64))
		case colstore.Float64:
			gc.F = append(gc.F, a.out.(float64))
		default:
			strs = append(strs, a.out.(string))
		}
		if sc.Type == colstore.Int64 {
			sc.I = append(sc.I, a.i)
		} else {
			sc.F = append(sc.F, a.f)
		}
	}
	if groupType == colstore.String {
		gc = StringCol(groupName, strs)
	}
	w := energy.Counters{
		TuplesIn:     tuples,
		TuplesOut:    uint64(len(keys)),
		Instructions: tuples * 12,
		CacheMisses:  tuples / 4,
	}
	rel, err := NewRelation(gc, sc)
	return rel, w, err
}
