// A served package's test drawing inputs from the generator leaf: clean.
package served_test

import (
	"testing"

	"repro/internal/lint/testdata/layering/internal/experiments/synth"
	"repro/internal/lint/testdata/layering/internal/served"
)

func TestAnswer(t *testing.T) {
	if served.Answer() != len(synth.Ints(6)) {
		t.Fatal("wrong answer")
	}
}
