package opt

import "math"

// Join ordering.  The paper (§II) observes that web-scale applications
// put hundreds to thousands of tables in one query and that classical
// optimizers cannot cope.  We implement the classical dynamic program for
// small queries and a greedy smallest-intermediate-first heuristic that
// stays sub-second past 10,000 tables; experiment E10 measures the
// cutover.

// JoinTable is one relation in a join graph.
type JoinTable struct {
	Name string
	Rows float64
}

// JoinGraph is an undirected join graph with per-edge selectivities.
// Absent edges are cross products (selectivity 1).
type JoinGraph struct {
	Tables []JoinTable
	sel    map[[2]int]float64
}

// NewJoinGraph returns a graph over the given tables.
func NewJoinGraph(tables []JoinTable) *JoinGraph {
	return &JoinGraph{Tables: tables, sel: make(map[[2]int]float64)}
}

// AddEdge records a join predicate between tables a and b with the given
// selectivity.
func (g *JoinGraph) AddEdge(a, b int, sel float64) {
	if a > b {
		a, b = b, a
	}
	g.sel[[2]int{a, b}] = sel
}

// edgeSel returns the selectivity between a and b (1 if unconnected).
func (g *JoinGraph) edgeSel(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if s, ok := g.sel[[2]int{a, b}]; ok {
		return s
	}
	return 1
}

// cardCap saturates intermediate cardinalities so degenerate plans stay
// finite and comparable instead of overflowing to +Inf.
const cardCap = 1e30

func clampCard(c float64) float64 {
	if c > cardCap {
		return cardCap
	}
	return c
}

// joinCard returns the cardinality of joining an intermediate of size
// card covering the tables in `in` with table t.
func (g *JoinGraph) joinCard(card float64, in []int, t int) float64 {
	out := card * g.Tables[t].Rows
	for _, a := range in {
		out *= g.edgeSel(a, t)
	}
	return clampCard(out)
}

// adjacency builds per-table neighbor lists once, for the incremental
// greedy pass.
func (g *JoinGraph) adjacency() [][]joinNeighbor {
	adj := make([][]joinNeighbor, len(g.Tables))
	for k, s := range g.sel {
		adj[k[0]] = append(adj[k[0]], joinNeighbor{to: k[1], sel: s})
		adj[k[1]] = append(adj[k[1]], joinNeighbor{to: k[0], sel: s})
	}
	return adj
}

type joinNeighbor struct {
	to  int
	sel float64
}

// DPLimit is the largest join size solved exactly; beyond it the planner
// switches to the greedy heuristic.
const DPLimit = 12

// OrderDP finds the optimal left-deep join order by dynamic programming
// over subsets (cost = sum of intermediate cardinalities).  It must only
// be called with len(Tables) <= DPLimit; Order dispatches automatically.
func (g *JoinGraph) OrderDP() ([]int, float64) {
	n := len(g.Tables)
	if n == 0 {
		return nil, 0
	}
	type entry struct {
		cost float64
		card float64
		last int
	}
	size := 1 << uint(n)
	dp := make([]entry, size)
	for i := range dp {
		dp[i] = entry{cost: math.Inf(1)}
	}
	for t := 0; t < n; t++ {
		dp[1<<uint(t)] = entry{cost: 0, card: g.Tables[t].Rows, last: t}
	}
	members := func(mask int) []int {
		var out []int
		for t := 0; t < n; t++ {
			if mask&(1<<uint(t)) != 0 {
				out = append(out, t)
			}
		}
		return out
	}
	for mask := 1; mask < size; mask++ {
		if mask&(mask-1) == 0 {
			continue // singletons initialized above
		}
		in := members(mask)
		for _, t := range in {
			prev := mask &^ (1 << uint(t))
			pe := dp[prev]
			if math.IsInf(pe.cost, 1) {
				continue
			}
			rest := members(prev)
			card := g.joinCard(pe.card, rest, t)
			cost := pe.cost + card
			if cost < dp[mask].cost {
				dp[mask] = entry{cost: cost, card: card, last: t}
			}
		}
	}
	// Reconstruct the order.
	order := make([]int, 0, n)
	mask := size - 1
	for mask != 0 {
		t := dp[mask].last
		order = append(order, t)
		mask &^= 1 << uint(t)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, dp[size-1].cost
}

// OrderGreedy builds a left-deep order by starting from the smallest
// table and repeatedly appending the table that minimizes the next
// intermediate cardinality.  Selectivity products against the current
// prefix are maintained incrementally, so the whole pass is
// O(E + n^2) — it handles tens of thousands of tables in well under a
// second.
func (g *JoinGraph) OrderGreedy() ([]int, float64) {
	n := len(g.Tables)
	if n == 0 {
		return nil, 0
	}
	adj := g.adjacency()
	used := make([]bool, n)
	// pending[t] = product of edge selectivities between t and the tables
	// already joined.
	pending := make([]float64, n)
	for i := range pending {
		pending[i] = 1
	}
	start := 0
	for t := 1; t < n; t++ {
		if g.Tables[t].Rows < g.Tables[start].Rows {
			start = t
		}
	}
	order := make([]int, 1, n)
	order[0] = start
	used[start] = true
	for _, e := range adj[start] {
		pending[e.to] *= e.sel
	}
	card := g.Tables[start].Rows
	cost := 0.0
	for len(order) < n {
		bestT, bestCard := -1, math.Inf(1)
		for t := 0; t < n; t++ {
			if used[t] {
				continue
			}
			c := clampCard(card * g.Tables[t].Rows * pending[t])
			if bestT < 0 || c < bestCard {
				bestT, bestCard = t, c
			}
		}
		order = append(order, bestT)
		used[bestT] = true
		for _, e := range adj[bestT] {
			if !used[e.to] {
				pending[e.to] *= e.sel
			}
		}
		card = bestCard
		cost = clampCard(cost + card)
	}
	return order, cost
}

// Order dispatches to the exact DP for small graphs and the greedy
// heuristic beyond DPLimit.
func (g *JoinGraph) Order() (order []int, cost float64, exact bool) {
	if len(g.Tables) <= DPLimit {
		o, c := g.OrderDP()
		return o, c, true
	}
	o, c := g.OrderGreedy()
	return o, c, false
}
