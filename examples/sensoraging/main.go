// Sensor life cycle: hot ingest of readings, windowed aggregation while
// the data is high-density, then aging to cold storage with durable REDO
// logging at a chosen reliability QoS — the paper's data life cycle from
// §I plus the multi-level reliability of §III.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/experiments/hier"
	"repro/internal/wal"
)

func main() {
	e := core.Open()
	tab, err := e.CreateTable("readings", colstore.Schema{
		{Name: "device", Type: colstore.Int64},
		{Name: "ts", Type: colstore.Int64},
		{Name: "temp", Type: colstore.Float64},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Hot path: ingest with REDO logging.  Business-critical commit
	// records replicate (repl-2); the bulk sensor payload is fine with
	// local durability.
	logger := wal.NewLog(wal.DefaultConfig())
	const nDev, nBatches, perBatch = 64, 50, 1000
	ts := int64(1_700_000_000)
	var commitLat time.Duration
	for b := 0; b < nBatches; b++ {
		w := tab.Writer()
		for i := 0; i < perBatch; i++ {
			d := int64(i % nDev)
			ts++
			temp := 20 + float64(d%10) + float64(i%7)*0.1
			w.Row(d, ts, temp)
			logger.Append(wal.Record{TxID: uint64(b), Key: "reading", Value: ts})
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		rep, err := logger.Commit(wal.Local)
		if err != nil {
			log.Fatal(err)
		}
		commitLat += rep.Latency
	}
	fmt.Printf("ingested %d readings in %d batches; mean commit latency %v (local QoS)\n",
		tab.Rows(), nBatches, (commitLat / nBatches).Round(time.Microsecond))

	// A daily close-of-books marker gets the replicated QoS.
	logger.Append(wal.Record{TxID: 999, Key: "day-close", Value: ts})
	rep, err := logger.Commit(wal.Repl2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day-close record committed at repl-2: %v\n", rep.Latency.Round(time.Microsecond))

	// Query while hot.
	if err := e.Seal("readings"); err != nil {
		log.Fatal(err)
	}
	res, err := e.Query(`SELECT device, MIN(temp) AS lo, MAX(temp) AS hi, AVG(temp) AS mean
		FROM readings GROUP BY device ORDER BY hi DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhottest devices:")
	fmt.Print(core.Format(res.Rel))
	fmt.Printf("query energy: %v\n", res.Joules())

	// Age the raw readings out of DRAM; keep the aggregate hot.
	m := hier.NewManager(nil)
	m.Place("readings-raw", tab.Bytes(), hier.DRAM)
	m.Place("readings-daily-agg", 1<<20, hier.DRAM)
	for i := 0; i < 8; i++ {
		m.Tick()
		if _, _, err := m.Access("readings-daily-agg", 4096); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\naging after a week of touching only the aggregate:")
	for _, mv := range m.Age(hier.DefaultAging()) {
		fmt.Printf("  %s: %v -> %v\n", mv.ID, mv.From, mv.To)
	}
	model := e.Model()
	fmt.Printf("idle power after aging: %v\n", m.IdlePower(model))
}
