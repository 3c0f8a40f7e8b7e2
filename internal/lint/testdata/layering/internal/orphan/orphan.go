// Package orphan is under internal/ but the serving root does not reach
// it: a finding at its package clause.
package orphan // want: unserved package under internal/

// Answer gives the package a body.
func Answer() int { return 42 }
