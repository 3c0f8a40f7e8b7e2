// Quickstart: create a table, load data, query it with SQL and with the
// procedural builder, and read the per-query energy report.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/vec"
)

func main() {
	e := core.Open()

	// 1. Create and fill a table.
	tab, err := e.CreateTable("products", colstore.Schema{
		{Name: "sku", Type: colstore.Int64},
		{Name: "category", Type: colstore.String},
		{Name: "price", Type: colstore.Float64},
	})
	if err != nil {
		log.Fatal(err)
	}
	categories := []string{"books", "games", "garden", "kitchen"}
	w := tab.Writer()
	for i := 0; i < 100_000; i++ {
		w.Row(int64(i), categories[i%len(categories)], float64(5+i%200))
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	// Seal freezes columns into their packed scan-optimized layout and
	// refreshes optimizer statistics.
	if err := e.Seal("products"); err != nil {
		log.Fatal(err)
	}

	// 2. Declarative SQL.
	res, err := e.Query(`SELECT category, COUNT(*) AS n, AVG(price) AS avg_price
		FROM products WHERE price > 150 GROUP BY category ORDER BY n DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("SQL result:")
	fmt.Print(core.Format(res.Rel))
	fmt.Printf("wall %v | model energy %v (%v)\n\n",
		res.Elapsed.Round(10*time.Microsecond), res.Joules(), res.Energy)

	// 3. The same query through the procedural builder — the other half
	// of the paper's "hybrid query language".
	res2, err := e.From("products").
		WhereFloat("price", vec.GT, 150).
		Select("category").
		Count("n").
		AvgOf("price", "avg_price").
		GroupBy("category").
		OrderBy("n", true).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("builder result (same plan, same rows):")
	fmt.Print(core.Format(res2.Rel))
}
