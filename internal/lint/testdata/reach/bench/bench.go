// Command bench stands in for the benchmark harness: its uses count.
package main

import "repro/internal/lint/testdata/reach/internal/served"

func main() { _ = served.FromBench() }
