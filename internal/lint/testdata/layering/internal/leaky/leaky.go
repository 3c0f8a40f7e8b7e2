// Package leaky is on the serving path and imports an experiment
// package: a finding at the import.
package leaky

import "repro/internal/lint/testdata/layering/internal/experiments/x" // want: served package imports an experiment

// Answer uses the import so the fixture type-checks.
func Answer() int { return x.Answer() }
