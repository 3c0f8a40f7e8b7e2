// Command serve stands in for the serving binary: the fixture test names
// it the serving root, so its import closure is the serving path.
package main

import (
	"repro/internal/lint/testdata/layering/internal/leaky"
	"repro/internal/lint/testdata/layering/internal/served"
)

func main() { _ = served.Answer() + leaky.Answer() }
