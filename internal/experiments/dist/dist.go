// Package dist simulates distributed execution of a grouped, filtered
// aggregation over an N-node cluster, the setting of the paper's §IV
// warning: "those naive considerations fail, if queries are executed in a
// distributed environment with additional communication costs".  Each node
// holds a horizontal partition of one table in its own column store; a
// coordinator runs the query under one of three shipping strategies and
// accounts wire bytes, simulated transfer time, and joules through the
// netsim link and the energy model:
//
//   - ShipRaw: every node ships the query's columns unfiltered and
//     uncompressed; the coordinator filters and aggregates.
//   - ShipCompressed: as ShipRaw, but integer columns travel through the
//     advisor-chosen internal/compress codec and VARCHAR columns travel
//     dictionary-coded (codes through a codec, the dictionary once).
//   - Pushdown: every node evaluates the predicates and a partial
//     aggregate locally with the exec/vec scan kernels and ships only its
//     group/sum pairs; the coordinator merges partials.
//
// All three strategies return the identical merged relation; only where
// the work runs and how many bytes cross the wire differ.
package dist

import (
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/netsim"
)

// Strategy selects how node data reaches the coordinator.
type Strategy int

// The shipping strategies of experiment E17.
const (
	// ShipRaw ships the query's columns unfiltered and uncompressed.
	ShipRaw Strategy = iota
	// ShipCompressed ships the same columns through compression codecs.
	ShipCompressed
	// Pushdown evaluates filter and partial aggregate node-locally and
	// ships only the partial results.
	Pushdown
)

// String names the strategy in reports and experiment tables.
func (s Strategy) String() string {
	switch s {
	case ShipRaw:
		return "ship-raw"
	case ShipCompressed:
		return "ship-compressed"
	case Pushdown:
		return "pushdown"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// AggQuery is the one query shape the distributed layer executes:
//
//	SELECT GroupBy, SUM(SumCol) AS SumAlias
//	FROM t WHERE Preds... GROUP BY GroupBy
//
// the grouped filtered aggregation every strategy comparison in the paper's
// distributed discussion is built on.
type AggQuery struct {
	Preds    []expr.Pred
	GroupBy  string
	SumCol   string
	SumAlias string
}

// String renders the query in SQL syntax.
func (q AggQuery) String() string {
	s := fmt.Sprintf("SELECT %s, SUM(%s)", q.GroupBy, q.SumCol)
	if q.SumAlias != "" {
		s += " AS " + q.SumAlias
	}
	for i, p := range q.Preds {
		if i == 0 {
			s += " WHERE "
		} else {
			s += " AND "
		}
		s += p.String()
	}
	return s + " GROUP BY " + q.GroupBy
}

// Report accounts one distributed execution: bytes on the wire, the
// simulated transfer time through the coordinator's ingress link, and the
// total energy (dynamic compute + link traffic + link idle power over the
// transfer window).
type Report struct {
	WireBytes uint64
	Transfer  time.Duration
	Energy    energy.Joules
}

// Node is one cluster member holding a horizontal partition.
type Node struct {
	ID    int
	Table *colstore.Table
}

// Cluster is a simulated N-node cluster sharing one schema, connected to
// the coordinator by a single ingress link (node shipments serialize
// through it).
type Cluster struct {
	Nodes []*Node

	schema colstore.Schema
	link   *netsim.Link
	model  *energy.Model
	sealed bool
}

// NewCluster creates nodes with empty per-node tables named
// "<name>/n<id>".  Load rows through Cluster.Nodes[i].Table, then Seal
// before running queries.
func NewCluster(nodes int, schema colstore.Schema, name string, link *netsim.Link) *Cluster {
	c := &Cluster{
		schema: append(colstore.Schema(nil), schema...),
		link:   link,
		model:  energy.DefaultModel(),
	}
	for i := 0; i < nodes; i++ {
		c.Nodes = append(c.Nodes, &Node{
			ID:    i,
			Table: colstore.NewTable(fmt.Sprintf("%s/n%d", name, i), schema),
		})
	}
	return c
}

// Seal freezes every node's table into its scan-optimized representation.
func (c *Cluster) Seal() error {
	for _, n := range c.Nodes {
		if _, err := n.Table.Merge(0); err != nil {
			return fmt.Errorf("dist: node %d: %w", n.ID, err)
		}
	}
	c.sealed = true
	return nil
}

// Rows returns the total row count across all nodes.
func (c *Cluster) Rows() int {
	var n int
	for _, node := range c.Nodes {
		n += node.Table.Rows()
	}
	return n
}
