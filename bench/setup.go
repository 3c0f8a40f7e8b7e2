package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/server"
	"repro/internal/workload"
)

// realClock implements server.Clock over the process monotonic clock —
// the same ten lines cmd/eimdb-serve wires in production, re-declared
// here because that one lives in package main.
type realClock struct{ epoch time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.epoch) }

func (c realClock) Schedule(at time.Duration, wake func()) {
	d := at - c.Now()
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, wake)
}

// segmentNames are the customers.segment dictionary.
var segmentNames = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"}

// numTiers is the cardinality of customers.tier (values 0..numTiers-1).
const numTiers = 10

// dataset is the generated input as plain Go slices.  The engine is
// loaded from it and the oracle evaluates over it; neither sees the
// other.
type dataset struct {
	orders  *workload.Orders // Region holds indexes into workload.RegionNames
	ckey    []int64
	segment []string
	tier    []int64
}

// genDataset builds the orders fact table (rows rows, rows/100+10
// customers, Zipf 1.1) and the customers dimension from the seed.
func genDataset(seed uint64, rows int) *dataset {
	nCust := rows/100 + 10
	d := &dataset{
		orders:  workload.GenOrders(seed, rows, nCust, 1.1),
		ckey:    make([]int64, nCust),
		segment: make([]string, nCust),
		tier:    make([]int64, nCust),
	}
	rng := workload.NewRNG(seed ^ 0xC0575EED)
	for i := range d.ckey {
		d.ckey[i] = int64(i)
		d.segment[i] = segmentNames[rng.Intn(len(segmentNames))]
		d.tier[i] = int64(rng.Intn(numTiers))
	}
	return d
}

// fixture is one fresh engine behind a real net/http server on a
// loopback port, plus the HTTP client the load generator drives it with.
type fixture struct {
	eng    *core.Engine
	srv    *server.Server
	clock  realClock
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// maxClients caps numClients: mixed_rw deals the 40 hot keys out to its
// clients, and every client needs several.
const maxClients = 8

// numClients is the load generator's connection count: one per core,
// never more, so the generator cannot starve the server it shares the
// process with.
func numClients() int { return min(runtime.GOMAXPROCS(0), maxClients) }

// newFixture loads and seals both tables into a fresh engine and starts
// the server.  mergeDeltaRows is the auto-merge threshold (0 = never).
func newFixture(d *dataset, mergeDeltaRows int) (*fixture, error) {
	eng := core.Open()
	ot, err := eng.CreateTable("orders", colstore.Schema{
		{Name: "id", Type: colstore.Int64},
		{Name: "custkey", Type: colstore.Int64},
		{Name: "region", Type: colstore.String},
		{Name: "amount", Type: colstore.Float64},
		{Name: "day", Type: colstore.Int64},
	})
	if err != nil {
		return nil, err
	}
	o := d.orders
	regions := make([]string, len(o.Region))
	for i, r := range o.Region {
		regions[i] = workload.RegionNames[r]
	}
	err = ot.Writer().
		Int64("id", o.OrderID...).
		Int64("custkey", o.CustKey...).
		String("region", regions...).
		Float64("amount", o.Amount...).
		Int64("day", o.OrderDay...).
		Close()
	if err != nil {
		return nil, err
	}
	ct, err := eng.CreateTable("customers", colstore.Schema{
		{Name: "ckey", Type: colstore.Int64},
		{Name: "segment", Type: colstore.String},
		{Name: "tier", Type: colstore.Int64},
	})
	if err != nil {
		return nil, err
	}
	err = ct.Writer().
		Int64("ckey", d.ckey...).
		String("segment", d.segment...).
		Int64("tier", d.tier...).
		Close()
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"orders", "customers"} {
		if err := eng.Seal(name); err != nil {
			return nil, err
		}
	}

	n := numClients()
	clock := realClock{epoch: time.Now()}
	srv := server.New(eng, server.Config{
		Sched:          schedConfig(),
		Objective:      opt.MinEnergy,
		MergeDeltaRows: mergeDeltaRows,
	}, clock)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	f := &fixture{
		eng:    eng,
		srv:    srv,
		clock:  clock,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
		}},
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// schedConfig is the scheduler configuration every workload serves under.
func schedConfig() core.SchedulerConfig {
	return core.SchedulerConfig{Budget: numClients(), QueueDepth: 64, BatchScans: true, Arbitrate: true}
}

// close shuts the server down and waits for its accept loop to exit.
func (f *fixture) close() {
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.hs.Shutdown(ctx); err != nil {
		f.hs.Close()
	}
	<-f.served
}

// storeRatio is Σ stored / Σ raw bytes over every table.
func (f *fixture) storeRatio() (float64, error) {
	var stored, raw uint64
	for _, name := range []string{"orders", "customers"} {
		t, err := f.eng.Catalog().Table(name)
		if err != nil {
			return 0, err
		}
		s := t.Storage()
		stored += s.StoredBytes
		raw += s.RawBytes
	}
	return float64(stored) / float64(raw), nil
}
