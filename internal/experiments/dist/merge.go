package dist

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/expr"
)

// mergePartials combines per-node partial aggregates into the final
// relation with the engine's one aggregate: the (group, sum) partials are
// stacked in node order, summed per group by exec.HashAgg and sorted on
// the key by exec.Sort (NaN highest), and a string key is re-interned in
// that sorted order.  HashAgg's sums are order-free, so the bytes do not
// depend on which strategy or shard layout produced the partials.
func mergePartials(ctx *exec.Ctx, q AggQuery, parts []*exec.Relation) (*exec.Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dist: cluster has no nodes")
	}
	all, err := stack(parts)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	sum := all.Cols[1].Name
	plan := &exec.Sort{
		Child: &exec.HashAgg{
			Child:   &received{label: fmt.Sprintf("Partials(%d)", len(parts)), rel: all},
			GroupBy: []string{q.GroupBy},
			Aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: sum, As: sum}},
		},
		Keys: []expr.SortKey{{Col: q.GroupBy}},
	}
	rel, err := plan.Run(ctx)
	if err != nil || rel.Cols[0].Type != colstore.String {
		return rel, err
	}
	// The stacked dictionary follows node order; the output's follows
	// the keys.
	key := &rel.Cols[0]
	strs := make([]string, rel.N)
	for i := range strs {
		strs[i] = key.Str(i)
	}
	*key = exec.StringCol(key.Name, strs)
	return rel, nil
}

// stack concatenates the (group, sum) partials row-wise.  Each node's
// string keys index its own dictionary, so they are re-interned by value
// into one (exec.StringCol).
func stack(parts []*exec.Relation) (*exec.Relation, error) {
	key := exec.Col{Name: parts[0].Cols[0].Name, Type: parts[0].Cols[0].Type}
	sum := exec.Col{Name: parts[0].Cols[1].Name, Type: parts[0].Cols[1].Type}
	var strs []string
	for _, p := range parts {
		g, s := &p.Cols[0], &p.Cols[1]
		switch key.Type {
		case colstore.Int64:
			key.I = append(key.I, g.I...)
		case colstore.Float64:
			key.F = append(key.F, g.F...)
		default:
			for i := 0; i < p.N; i++ {
				strs = append(strs, g.Str(i))
			}
		}
		sum.I = append(sum.I, s.I...)
		sum.F = append(sum.F, s.F...)
	}
	if key.Type == colstore.String {
		key = exec.StringCol(key.Name, strs)
	}
	return &exec.Relation{N: key.Len(), Cols: []exec.Col{key, sum}}, nil
}
