// Package reg_bad mimics the experiments registry idiom with drift in
// every direction: E2 registered but undocumented, E3 documented but
// unregistered, a ghost benchmark and ghost tests in the doc, and a stale
// baseline.
package reg_bad

// Experiment mirrors the real registry entry shape.
type Experiment struct {
	ID    string
	Title string
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

func init() {
	register(Experiment{ID: "E1", Title: "documented"})
	register(Experiment{ID: "E2", Title: "undocumented"})
}

// T stands in for *testing.T.
type T struct{}

// TestOne is the one test the fixture's EXPERIMENTS.md may name.
func TestOne(t *T) {}

// B stands in for *testing.B.
type B struct{}

// ReportMetric mirrors the testing.B method the analyzer scans for.
func (*B) ReportMetric(v float64, key string) {}

// BenchmarkAlpha is the one benchmark that really exists.
func BenchmarkAlpha(b *B) {
	b.ReportMetric(1, "J/op")
}
