package workload

import "time"

// Arrival is one scripted query arrival: the open-loop offset at which
// the SQL text reaches the engine, plus an optional client identity
// (the serving front end's API key; empty means anonymous).
type Arrival struct {
	At     time.Duration
	SQL    string
	Client string
}

// Script is the shared arrival-script format of the open-loop drivers.
// eimdb-bench -replay, the E21/E22 experiments, and the serving front
// end's deterministic replay harness all consume the same scripts, so a
// workload shape is defined exactly once and every driver reproduces
// the same byte-for-byte arrival sequence.
type Script struct {
	Arrivals []Arrival
}
