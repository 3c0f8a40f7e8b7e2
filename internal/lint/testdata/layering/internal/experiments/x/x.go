// Package x is an experiment package importing another experiment
// package: clean, although leaky pulls it onto the serving path.
package x

import "repro/internal/lint/testdata/layering/internal/experiments/y"

// Answer uses the import so the fixture type-checks.
func Answer() int { return y.Answer() + 1 }
