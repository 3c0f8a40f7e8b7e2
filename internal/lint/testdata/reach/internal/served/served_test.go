package served

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 5 {
		t.Fatal("fixture")
	}
}
