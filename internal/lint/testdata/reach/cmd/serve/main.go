// Command serve stands in for the serving binary: the fixture test names
// it the serving root, so its import closure is the serving path.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/reach/internal/served"
)

func main() {
	var s served.Shape = served.NewSquare(3)
	fmt.Println(served.Used(), s.Area())
}
