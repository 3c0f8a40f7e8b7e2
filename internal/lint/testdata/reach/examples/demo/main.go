// Command demo stands in for an example program: its uses count.
package main

import "repro/internal/lint/testdata/reach/internal/served"

func main() { _ = served.FromExample() }
