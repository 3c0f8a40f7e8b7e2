// Package testonly holds nothing but tests, of code that lives
// elsewhere: a finding at its package clause.
package testonly_test // want: test-only directory under internal/

import "testing"

func TestNothing(t *testing.T) {}
