// Package experiments implements the reproduction harness: one runnable
// module per experiment in EXPERIMENTS.md (E1–E24), each printing the
// table or series the paper's claim corresponds to.  cmd/eimdb-bench is
// the CLI front end; the root bench_test.go exercises the same modules
// under testing.B.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Experiment is one reproducible unit.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper text being checked
	Run   func(w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		// E1..E18: numeric order on the suffix.
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
