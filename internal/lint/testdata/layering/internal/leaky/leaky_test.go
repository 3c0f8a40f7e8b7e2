// A served package's test importing experiment code: that test tests the
// experiment's code and belongs beside it, a finding at the import.
package leaky_test

import (
	"testing"

	"repro/internal/lint/testdata/layering/internal/experiments/y" // want: served package's test imports an experiment
)

func TestExperimentAnswer(t *testing.T) {
	if y.Answer() != 41 {
		t.Fatal("wrong answer")
	}
}
