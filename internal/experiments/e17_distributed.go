package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/experiments/dist"
	"repro/internal/expr"
	"repro/internal/netsim"
	"repro/internal/vec"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "distributed aggregation: ship-raw vs compressed vs pushdown (extension)",
		Claim: "\"those naive considerations fail, if queries are executed in a distributed environment with additional communication costs\" (§IV) — the shipping strategy dominates distributed time and energy",
		Run:   runE17,
	})
}

// E17Row is one (link, strategy) execution.
type E17Row struct {
	Link      string
	Strategy  dist.Strategy
	WireBytes uint64
	Transfer  time.Duration
	Energy    energy.Joules
}

// E17Sweep runs the distributed grouped aggregation over the link ladder
// with all three strategies.
func E17Sweep(nodes, rows int) ([]E17Row, error) {
	schema := colstore.Schema{
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
	}
	q := dist.AggQuery{
		Preds:    []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(800)}},
		GroupBy:  "region",
		SumCol:   "amount",
		SumAlias: "rev",
	}
	o := workload.GenOrders(55, rows, 1000, 1.1)
	var out []E17Row
	for _, link := range netsim.DefaultLinks() {
		c := dist.NewCluster(nodes, schema, "orders", link)
		writers := make([]*colstore.Writer, nodes)
		for n := range writers {
			writers[n] = c.Nodes[n].Table.Writer()
		}
		for i := 0; i < rows; i++ {
			writers[i%nodes].Row(o.CustKey[i], workload.RegionNames[o.Region[i]], o.Amount[i])
		}
		for _, w := range writers {
			if err := w.Close(); err != nil {
				return nil, err
			}
		}
		if err := c.Seal(); err != nil {
			return nil, err
		}
		for _, s := range []dist.Strategy{dist.ShipRaw, dist.ShipCompressed, dist.Pushdown} {
			_, rep, err := c.Run(q, s)
			if err != nil {
				return nil, err
			}
			out = append(out, E17Row{
				Link: link.Name, Strategy: s,
				WireBytes: rep.WireBytes, Transfer: rep.Transfer, Energy: rep.Energy,
			})
		}
	}
	return out, nil
}

func runE17(w io.Writer) error {
	rows, err := E17Sweep(8, 400_000)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "link\tstrategy\twire-bytes\ttransfer\ttotal-J")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%v\t%d\t%v\t%v\n",
			r.Link, r.Strategy, r.WireBytes, r.Transfer.Round(10*time.Microsecond), r.Energy)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: pushdown ships orders of magnitude fewer bytes and dominates slow")
	fmt.Fprintln(w, "links; compression sits between; on fast links the strategies converge as the")
	fmt.Fprintln(w, "wire stops being the bottleneck — communication cost decides, case by case.")
	return nil
}
