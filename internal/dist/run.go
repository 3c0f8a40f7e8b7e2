package dist

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
)

// columns returns the columns the query touches, group/sum first, each
// once — the projection a node ships under the data-shipping strategies.
func (q AggQuery) columns() []string {
	cols := make([]string, 0, 2+len(q.Preds))
	seen := make(map[string]bool, 2+len(q.Preds))
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			cols = append(cols, name)
		}
	}
	add(q.GroupBy)
	add(q.SumCol)
	for _, p := range q.Preds {
		add(p.Col)
	}
	return cols
}

// Run executes the query under the given strategy and returns the merged
// result (identical across strategies), plus the wire/time/energy account.
//
// Execution is simulated on one machine, but work is placed faithfully:
// under Pushdown the predicate scans run against the nodes' sealed column
// stores (word-parallel kernels, zone maps), while the data-shipping
// strategies pay full materialization on the nodes and row-at-a-time
// filtering on the coordinator, where only shipped arrays exist.  Each
// node's partial sums are accumulated in node-row order and merged in node
// order under every strategy, so even the floating-point results are
// byte-identical.
func (c *Cluster) Run(q AggQuery, s Strategy) (*exec.Relation, Report, error) {
	if !c.sealed {
		return nil, Report{}, fmt.Errorf("dist: cluster is not sealed; load rows then call Seal before Run")
	}
	switch s {
	case ShipRaw, ShipCompressed, Pushdown:
	default:
		return nil, Report{}, fmt.Errorf("dist: unknown strategy %v", s)
	}
	// Validate predicate literal types up front so every strategy rejects
	// a bad query identically (the coordinator-side Filter would otherwise
	// silently compare against the wrong Value field).
	for _, p := range q.Preds {
		i := c.schema.ColIndex(p.Col)
		if i < 0 {
			return nil, Report{}, fmt.Errorf("dist: predicate %s: no column %q", p, p.Col)
		}
		if c.schema[i].Type != p.Val.Kind {
			return nil, Report{}, fmt.Errorf("dist: predicate %s: column %q is %v, literal is %v",
				p, p.Col, c.schema[i].Type, p.Val.Kind)
		}
	}

	ctx := exec.NewCtx()
	var wire uint64
	parts := make([]*exec.Relation, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		part, shipped, err := c.runNode(ctx, n, q, s)
		if err != nil {
			return nil, Report{}, err
		}
		wire += shipped
		parts = append(parts, part)
	}

	merged, err := mergePartials(ctx, q, parts)
	if err != nil {
		return nil, Report{}, err
	}

	work := ctx.Meter.Snapshot()
	dyn := c.model.DynamicEnergy(work, c.model.Core.MaxPState())
	total := dyn.Total() + energy.StaticEnergy(c.link.Idle, ctx.SimTime)
	return merged, Report{WireBytes: wire, Transfer: ctx.SimTime, Energy: total}, nil
}

// runNode produces one node's partial aggregate under the strategy and
// accounts whatever that strategy put on the wire.
func (c *Cluster) runNode(ctx *exec.Ctx, n *Node, q AggQuery, s Strategy) (*exec.Relation, uint64, error) {
	aggs := []expr.AggSpec{{Func: expr.AggSum, Col: q.SumCol, As: q.SumAlias}}
	if s == Pushdown {
		// Predicates and the partial aggregate run node-locally on the
		// sealed column store; only the group/sum pairs travel.
		sel := []string{q.GroupBy}
		if q.SumCol != q.GroupBy {
			sel = append(sel, q.SumCol)
		}
		plan := &exec.HashAgg{
			Child: &exec.Scan{
				Source: colstore.OneShard(n.Table),
				Select: sel,
				Preds:  q.Preds,
			},
			GroupBy: []string{q.GroupBy},
			Aggs:    aggs,
		}
		part, err := plan.Run(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("dist: node %d: %w", n.ID, err)
		}
		w := wireBytesRaw(part)
		c.ship(ctx, n.ID, part.Bytes(), w, 0)
		return part, w, nil
	}

	// Data shipping: materialize the query's columns unfiltered, encode
	// them for the wire, and evaluate on the coordinator against the
	// received arrays.
	scan := &exec.Scan{Source: colstore.OneShard(n.Table), Select: q.columns()}
	rel, err := scan.Run(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: node %d: %w", n.ID, err)
	}
	recv, w, instr, err := encode(rel, s)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: node %d: %w", n.ID, err)
	}
	c.ship(ctx, n.ID, rel.Bytes(), w, instr)
	plan := &exec.HashAgg{
		Child:   &exec.Filter{Child: &shipped{From: n.ID, Rel: recv}, Preds: q.Preds},
		GroupBy: []string{q.GroupBy},
		Aggs:    aggs,
	}
	part, err := plan.Run(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: node %d: %w", n.ID, err)
	}
	return part, w, nil
}
