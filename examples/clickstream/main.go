// Clickstream analytics: the paper's "low-density" data scenario — a
// large append-only event stream with no per-row semantics, queried by
// scans and aggregations, ingested data-first (schema evolves as fields
// appear) and placed on the cheap tier once cold.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/experiments/hier"
	"repro/internal/experiments/schema"
	"repro/internal/workload"
)

func main() {
	// Part 1 — data-first ingestion: early events have (user, url, ts);
	// "dwell" appears mid-stream, the schema follows the data.
	flex := schema.NewFlexTable("clicks_raw")
	clicks := workload.GenClicks(7, 200_000, 5_000, 20_000)
	for i := range clicks.User {
		rec := map[string]any{
			"user": clicks.User[i],
			"url":  clicks.URL[i],
			"ts":   clicks.TS[i],
		}
		if i > len(clicks.User)/3 { // the tracker started sending dwell later
			rec["dwell"] = clicks.Dur[i]
		}
		if err := flex.Ingest(rec); err != nil {
			log.Fatal(err)
		}
	}
	nulls, _ := flex.NullCount("dwell")
	fmt.Printf("ingested %d events data-first; dwell column appeared mid-stream (%d nulls)\n",
		flex.Rows(), nulls)

	// Part 2 — analytical queries over the columnar form.
	e := core.Open()
	tab, err := e.CreateTable("clicks", colstore.Schema{
		{Name: "user", Type: colstore.Int64},
		{Name: "url", Type: colstore.Int64},
		{Name: "ts", Type: colstore.Int64},
		{Name: "dwell", Type: colstore.Int64},
	})
	if err != nil {
		log.Fatal(err)
	}
	err = tab.Writer().
		Int64("user", clicks.User...).
		Int64("url", clicks.URL...).
		Int64("ts", clicks.TS...).
		Int64("dwell", clicks.Dur...).
		Close()
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Seal("clicks"); err != nil {
		log.Fatal(err)
	}
	res, err := e.Query(`SELECT url, COUNT(*) AS hits, AVG(dwell) AS avg_dwell
		FROM clicks GROUP BY url ORDER BY hits DESC LIMIT 10`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-10 URLs by hits (Zipf-skewed popularity):")
	fmt.Print(core.Format(res.Rel))
	fmt.Printf("scan+agg over %d events: wall %v, model energy %v\n",
		tab.Rows(), res.Elapsed.Round(10*time.Microsecond), res.Joules())

	// Part 3 — cold placement: clickstream segments age to disk, where a
	// scan is still fine but point access would not be.
	m := hier.NewManager(nil)
	m.Place("clicks-2026-05", tab.Bytes(), hier.DRAM)
	for i := 0; i < 20; i++ {
		m.Tick() // a month of not touching last month's segment
	}
	for _, mv := range m.Age(hier.DefaultAging()) {
		fmt.Printf("\naged %s: %v -> %v (migration %v)\n", mv.ID, mv.From, mv.To,
			mv.Elapsed.Round(time.Millisecond))
	}
	d, _, err := m.Access("clicks-2026-05", tab.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full scan of the cold segment from HDD: %v (acceptable for batch analytics)\n",
		d.Round(time.Millisecond))
}
