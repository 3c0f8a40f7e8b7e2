// Command eimdb-cli is an interactive SQL shell over the engine, loaded
// with the demo orders/customer dataset.  Each query prints its rows
// followed by the plan and the energy report — the paper's position that
// energy is a first-class citizen, visible per query.
//
// Meta commands: \plan <sql> shows the plan without running; \tables
// lists tables; \quit exits.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	e := core.Open()
	if err := loadDemo(e); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Println("eimdb — energy-efficient in-memory database (demo dataset: orders, customer)")
	fmt.Println(`type SQL, or \plan <sql>, \tables, \quit`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("eimdb> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, t := range e.Catalog().Tables() {
				fmt.Println(" ", t)
			}
		case strings.HasPrefix(line, `\plan `):
			plan, err := e.Explain(strings.TrimPrefix(line, `\plan `))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(plan)
		default:
			res, err := e.Query(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(core.Format(res.Rel))
			fmt.Printf("(%d rows, %v wall, %v model energy: %v)\n",
				res.Rel.N, res.Elapsed.Round(10*time.Microsecond), res.Joules(), res.Energy)
		}
	}
}

// loadDemo creates the demo schema: 200k orders and 2k customers.
func loadDemo(e *core.Engine) error {
	const nOrders, nCust = 200_000, 2_000
	o := workload.GenOrders(1, nOrders, nCust, 1.1)
	orders, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "status", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	if err != nil {
		return err
	}
	regions := make([]string, nOrders)
	statuses := make([]string, nOrders)
	for i := range regions {
		regions[i] = workload.RegionNames[o.Region[i]]
		statuses[i] = workload.StatusNames[o.Status[i]]
	}
	err = orders.Writer().
		Int64("id", o.OrderID...).
		Int64("custkey", o.CustKey...).
		String("region", regions...).
		String("status", statuses...).
		Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).
		Close()
	if err != nil {
		return err
	}
	cust, err := e.CreateTable("customer", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
	})
	if err != nil {
		return err
	}
	cw := cust.Writer()
	for k := 0; k < nCust; k++ {
		seg := "RETAIL"
		if k%4 == 0 {
			seg = "WHOLESALE"
		}
		cw.Row(int64(k), seg)
	}
	if err := cw.Close(); err != nil {
		return err
	}
	if err := e.Seal("orders"); err != nil {
		return err
	}
	return e.Seal("customer")
}
