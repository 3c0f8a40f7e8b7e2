// Package x is an experiment package: its uses do not count.
package x

import "repro/internal/lint/testdata/reach/internal/served"

// Answer calls what only this experiment uses.
func Answer() int { return served.OnlyExperiment() }
