// Distributed aggregation: the paper's §IV warning made concrete —
// "those naive considerations fail, if queries are executed in a
// distributed environment with additional communication costs".  The same
// grouped aggregation runs over an 8-node cluster three ways (ship raw,
// ship compressed, aggregate pushdown) on a slow and a fast interconnect.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/experiments/dist"
	"repro/internal/expr"
	"repro/internal/netsim"
	"repro/internal/vec"
	"repro/internal/workload"
)

func main() {
	const nodes, rows = 8, 400_000
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

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "link\tstrategy\twire\ttransfer\tenergy")
	for _, linkName := range []string{"0.1Gbps", "40Gbps"} {
		link, err := netsim.LinkByName(linkName)
		if err != nil {
			log.Fatal(err)
		}
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
				log.Fatal(err)
			}
		}
		if err := c.Seal(); err != nil {
			log.Fatal(err)
		}
		var result string
		for _, s := range []dist.Strategy{dist.ShipRaw, dist.ShipCompressed, dist.Pushdown} {
			rel, rep, err := c.Run(q, s)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(tw, "%s\t%v\t%.1f MB\t%v\t%v\n",
				linkName, s, float64(rep.WireBytes)/(1<<20),
				rep.Transfer.Round(100*time.Microsecond), rep.Energy)
			result = core.Format(rel)
		}
		if linkName == "0.1Gbps" {
			tw.Flush()
			fmt.Println("\nresult (identical under every strategy):")
			fmt.Println(result)
			fmt.Fprintln(tw, "link\tstrategy\twire\ttransfer\tenergy")
		}
	}
	tw.Flush()
	fmt.Println("\nreading: on the slow link pushdown wins outright; on the fast link the wire")
	fmt.Println("stops mattering and the strategies converge — the decision is case-by-case.")
}
