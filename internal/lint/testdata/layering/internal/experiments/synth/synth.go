// Package synth stands in for the generator leaf: seeded inputs any test
// may draw, served packages' tests included.
package synth

// Ints returns n seeded values.
func Ints(n int) []int64 { return make([]int64, n) }
