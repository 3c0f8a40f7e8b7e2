package workload

// This file holds the dataset generators.  Each returns plain typed
// slices (struct-of-arrays form) so loaders can move them straight into
// column segments without per-row boxing.

// Orders is a TPC-H-flavoured order-entry dataset: the paper's
// "high-density" business-critical data with high transaction load and
// point access.
type Orders struct {
	OrderID  []int64   // dense, unique, ascending
	CustKey  []int64   // zipfian: few hot customers
	Region   []int64   // dictionary code 0..NRegions-1
	Status   []int64   // dictionary code 0..NStatuses-1
	Amount   []float64 // order value
	OrderDay []int64   // days since epoch, mildly ascending
}

// Regions and statuses used by the generator; exported so examples can
// decode dictionary codes.
var (
	RegionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	StatusNames = []string{"NEW", "PAID", "SHIPPED", "DELIVERED", "RETURNED"}
)

// GenOrders produces n orders over nCust customers with Zipf skew s.
func GenOrders(seed uint64, n, nCust int, s float64) *Orders {
	rng := NewRNG(seed)
	z := NewZipf(rng, s, nCust)
	o := &Orders{
		OrderID:  make([]int64, n),
		CustKey:  make([]int64, n),
		Region:   make([]int64, n),
		Status:   make([]int64, n),
		Amount:   make([]float64, n),
		OrderDay: make([]int64, n),
	}
	day := int64(15000) // ~2011-01-26, arbitrary epoch offset
	for i := 0; i < n; i++ {
		o.OrderID[i] = int64(i) + 1
		o.CustKey[i] = int64(z.Next())
		o.Region[i] = int64(rng.Intn(len(RegionNames)))
		o.Status[i] = int64(rng.Intn(len(StatusNames)))
		o.Amount[i] = 1 + rng.Float64()*9999
		if rng.Float64() < 0.01 {
			day++
		}
		o.OrderDay[i] = day
	}
	return o
}

// Sensor is the paper's "low-density" data: massive append-only readings
// with no per-row semantics, queried by large parallel scans.
type Sensor struct {
	Device []int64   // device id, round-robin
	TS     []int64   // monotonically increasing timestamp (seconds)
	Value  []float64 // reading with drift + noise
}

// GenSensor produces n readings from nDev devices starting at startTS.
func GenSensor(seed uint64, n, nDev int, startTS int64) *Sensor {
	rng := NewRNG(seed)
	s := &Sensor{
		Device: make([]int64, n),
		TS:     make([]int64, n),
		Value:  make([]float64, n),
	}
	drift := make([]float64, nDev)
	ts := startTS
	for i := 0; i < n; i++ {
		d := i % nDev
		if d == 0 {
			ts++
		}
		drift[d] += rng.NormFloat64() * 0.01
		s.Device[i] = int64(d)
		s.TS[i] = ts
		s.Value[i] = 20 + drift[d] + rng.NormFloat64()*0.5
	}
	return s
}

// Click is a clickstream event: the web-style, weakly structured data the
// paper's flexible-schema discussion targets.
type Click struct {
	User []int64 // zipfian user popularity
	URL  []int64 // zipfian URL popularity (dictionary code)
	TS   []int64 // event time, seconds
	Dur  []int64 // dwell time, ms
}

// GenClicks produces n events over nUser users and nURL distinct URLs.
func GenClicks(seed uint64, n, nUser, nURL int) *Click {
	rng := NewRNG(seed)
	zu := NewZipf(rng, 1.2, nUser)
	zl := NewZipf(rng, 1.4, nURL)
	c := &Click{
		User: make([]int64, n),
		URL:  make([]int64, n),
		TS:   make([]int64, n),
		Dur:  make([]int64, n),
	}
	ts := int64(1_600_000_000)
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(3))
		c.User[i] = int64(zu.Next())
		c.URL[i] = int64(zl.Next())
		c.TS[i] = ts
		c.Dur[i] = int64(rng.ExpFloat64() * 4000)
	}
	return c
}
