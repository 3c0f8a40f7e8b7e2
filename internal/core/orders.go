package core

import (
	"repro/internal/colstore"
	"repro/internal/workload"
)

// OrdersEngine opens an engine holding the standard sealed orders table
// of n rows (workload.GenOrders, seed 42): the table eimdb-serve serves,
// the experiments sweep and the root benchmarks drive.
func OrdersEngine(n int) (*Engine, error) {
	e := Open()
	o := workload.GenOrders(42, n, n/100+10, 1.1)
	tab, err := e.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	if err != nil {
		return nil, err
	}
	regions := make([]string, n)
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	err = tab.Writer().
		Int64("id", o.OrderID...).
		Int64("custkey", o.CustKey...).
		String("region", regions...).
		Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).
		Close()
	if err != nil {
		return nil, err
	}
	if err := e.Seal("orders"); err != nil {
		return nil, err
	}
	return e, nil
}
