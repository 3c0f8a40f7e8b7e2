// Command tool is a command outside the serving closure: its uses count.
package main

import "repro/internal/lint/testdata/reach/internal/served"

func main() { _ = served.FromCmd() }
