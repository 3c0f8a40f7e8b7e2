// Package reg_good is the drift-free registry fixture.
package reg_good

// Experiment mirrors the real registry entry shape.
type Experiment struct {
	ID    string
	Title string
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

func init() {
	register(Experiment{ID: "E1", Title: "documented"})
}

// T stands in for *testing.T.
type T struct{}

// TestOne is the one test the fixture's EXPERIMENTS.md may name.
func TestOne(t *T) {}

// B stands in for *testing.B.
type B struct{}

// ReportMetric mirrors the testing.B method the analyzer scans for.
func (*B) ReportMetric(v float64, key string) {}

// BenchmarkAlpha exists, is referenced, and reports the gated metric.
func BenchmarkAlpha(b *B) {
	b.ReportMetric(1, "J/op")
}
