// Package repro is a from-scratch Go reproduction of W. Lehner,
// "Energy-Efficient In-Memory Database Computing" (DATE 2013): an
// energy-aware in-memory column-store engine together with every
// substrate the paper's argument rests on — word-parallel scans, a
// morsel-driven parallel executor with an energy-aware degree of
// parallelism chosen per query from the scheduler's P-state cost model,
// compression codecs with advisor-chosen per-segment storage and
// operate-on-compressed scan kernels (predicates evaluated directly on
// RLE runs, delta checkpoints, dictionary codes, and bit-packed words),
// radix-partitioned morsel-parallel hash joins that run string keys in
// the dictionary code domain (a sorted sealed segment is its own index:
// delta boundary search plus zone maps, the one access path), a dual
// time/energy optimizer with a DP-to-greedy join-ordering pass, an
// energy-aware scheduler with a multi-query layer (admission-controlled
// run queue, a shared core budget arbitrated across concurrent queries
// by the P-state DOP pricer through revocable core leases, and
// shared-scan batching of lookalike queries, driven by open-loop
// arrival processes), an online HTTP/JSON serving front end
// (internal/server + cmd/eimdb-serve: plan cache keyed by the canonical
// share signature, per-client energy admission, queue backpressure —
// deterministic to the byte on a simulated clock), table transactions
// over a QoS REDO log, and a network simulator.  Everything under
// internal/ outside internal/experiments and internal/lint is exactly
// what cmd/eimdb-serve links.  The experiment suite keeps the models only
// an experiment uses beside it, under internal/experiments: a whole-
// machine power simulator, compress-vs-send codec choice,
// synchronization schemes, a storage hierarchy, distributed query
// shipping (ship-raw vs ship-compressed vs aggregate pushdown over a
// simulated cluster), cluster elasticity, flexible schema, database
// conversations, xPU offload and NUMA placement, and robustness
// policies.
//
// See README.md for the tour and build/test instructions, ARCHITECTURE.md
// for the subsystem map, the morsel pipeline, and the energy-accounting
// walkthrough, and EXPERIMENTS.md for the per-claim reproduction map.
// The root-level bench_test.go regenerates every experiment under
// `go test -bench`.  The determinism and energy-accounting contracts
// are machine-checked by the stdlib-only internal/lint suite — run it
// with `go run ./cmd/eimdb-lint ./...` (it also runs inside tier-1
// `go test ./...` and as the CI lint job).
package repro
