// Package y is an experiment package with no imports.
package y

// Answer gives the package a body.
func Answer() int { return 41 }
