package experiments

import (
	"fmt"
	"io"

	"repro/internal/experiments/schema"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "flexible schema + Need-to-Know index maintenance",
		Claim: "\"the schema ... develops over time as data enters the system following the 'data comes first, schema comes second' paradigm\" (§II); \"a system following the Need-to-Know principle would only update the index if another application has indicated interest in reading\" (§IV.A)",
		Run:   runE12,
	})
}

// E12Row is one (mode, read count) maintenance measurement.
type E12Row struct {
	Mode     schema.MaintMode
	Inserts  int
	Reads    int
	MaintOps int
	Rebuilds int
	Backlog  int
}

// E12Sweep ingests schema-evolving records and compares maintenance work.
func E12Sweep(inserts int) ([]E12Row, error) {
	run := func(mode schema.MaintMode, reads int) (E12Row, error) {
		ft := schema.NewFlexTable("events")
		if err := ft.CreateIndex("user", mode); err != nil {
			return E12Row{}, err
		}
		for i := 0; i < inserts; i++ {
			rec := map[string]any{"user": int64(i % 1000), "ts": int64(i)}
			if i > inserts/2 {
				rec["referrer"] = "r" // schema evolves mid-stream
			}
			if err := ft.Ingest(rec); err != nil {
				return E12Row{}, err
			}
		}
		for r := 0; r < reads; r++ {
			if _, err := ft.Lookup("user", int64(r%1000)); err != nil {
				return E12Row{}, err
			}
		}
		st, err := ft.IndexStats("user")
		if err != nil {
			return E12Row{}, err
		}
		return E12Row{
			Mode: mode, Inserts: inserts, Reads: reads,
			MaintOps: st.MaintOps, Rebuilds: st.Rebuilds, Backlog: st.Backlog,
		}, nil
	}
	var out []E12Row
	for _, reads := range []int{0, 1, 100} {
		for _, mode := range []schema.MaintMode{schema.Eager, schema.Deferred} {
			row, err := run(mode, reads)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runE12(w io.Writer) error {
	rows, err := E12Sweep(100_000)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "reads\tmode\tmaintenance-ops\trebuilds\tbacklog")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\n", r.Reads, r.Mode, r.MaintOps, r.Rebuilds, r.Backlog)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: with no readers, Need-to-Know does zero maintenance (eager pays per")
	fmt.Fprintln(w, "insert); one interested reader triggers exactly one backlog absorption.")
	return nil
}
