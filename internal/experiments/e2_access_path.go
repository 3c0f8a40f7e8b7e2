package experiments

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/opt"
	"repro/internal/vec"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E2",
		Title: "the engine's one access path: a sorted (self-indexing) vs a shuffled layout across selectivities",
		Claim: "\"if a query can be answered using an index lookup instead of a table scan, fewer cycles are spent on that particular query\" — traditional optimization is implicitly energy optimization (§IV)",
		Run:   runE2,
	})
}

// E2Arm is one layout's measurement at one selectivity.
type E2Arm struct {
	Time  time.Duration // wall time of one run (display only)
	J     energy.Joules // modeled energy of the measured counters
	Bytes uint64        // DRAM bytes the scan streamed
	EstJ  energy.Joules // the planner's estimate
}

// E2Row is one measured selectivity point.
type E2Row struct {
	Selectivity float64
	Matches     int
	Sorted      E2Arm
	Shuffled    E2Arm
}

// e2Layouts are the two tables E2 loads, each with the codec its sealed
// segments must land on.
var e2Layouts = [...]struct{ name, codec string }{
	{"sorted", "delta"},
	{"shuffled", "bitpack"},
}

// E2Sweep loads the same `id` column (0..rows-1) twice — in order, where
// sealing delta-codes it and the scan boundary-searches each segment and
// zone-prunes the rest, and shuffled, where it bit-packs and every segment
// spans the whole domain — and runs `SELECT id FROM t WHERE id < cut`
// through the engine's planner and its one scan on both.  A sorted sealed
// segment is its own index: the storage format subsumes the secondary
// index, so the index lookup's claim is measured on the access path the
// engine actually serves.  It errors if a layout seals to another codec
// or the two arms' relations differ as sets.
func E2Sweep(rows int) ([]E2Row, error) {
	e := core.Open()
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	for _, l := range e2Layouts {
		if l.name == "shuffled" {
			workload.NewRNG(11).Shuffle(rows, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		tab, err := e.CreateTable(l.name, colstore.Schema{{Name: "id", Type: colstore.Int64}})
		if err != nil {
			return nil, err
		}
		if err := tab.Writer().Int64("id", keys...).Close(); err != nil {
			return nil, err
		}
		if err := e.Seal(l.name); err != nil {
			return nil, err
		}
		ic, err := tab.IntCol("id")
		if err != nil {
			return nil, err
		}
		if segs := ic.Storage().Segments; dominantCodec(segs) != l.codec {
			return nil, fmt.Errorf("experiments: E2 %s layout sealed to %v, expected %s", l.name, segs, l.codec)
		}
	}
	cm := opt.NewCostModel(e.Model())

	run := func(table string, cut int64) (E2Arm, []int64, error) {
		q := &opt.Query{
			From:   table,
			Preds:  []expr.Pred{{Col: "id", Op: vec.LT, Val: expr.IntVal(cut)}},
			Select: []opt.SelectItem{{Col: "id"}},
		}
		node, info, err := e.Plan(q, opt.MinEnergy)
		if err != nil {
			return E2Arm{}, nil, err
		}
		ctx := exec.NewCtx()
		start := time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
		rel, err := node.Run(ctx)
		if err != nil {
			return E2Arm{}, nil, err
		}
		elapsed := time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
		wk := ctx.Meter.Snapshot()
		return E2Arm{Time: elapsed, J: cm.Price(wk, 0).Energy, Bytes: wk.BytesReadDRAM, EstJ: info.Est.Energy},
			rel.Cols[0].I, nil
	}

	var out []E2Row
	for _, sel := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5} {
		cut := max(int64(float64(rows)*sel), 1)
		sorted, sIDs, err := run("sorted", cut)
		if err != nil {
			return nil, err
		}
		shuffled, hIDs, err := run("shuffled", cut)
		if err != nil {
			return nil, err
		}
		slices.Sort(hIDs)
		if !reflect.DeepEqual(sIDs, hIDs) {
			return nil, fmt.Errorf("experiments: E2 sel=%g: the layouts answer different relations (%d vs %d rows)",
				sel, len(sIDs), len(hIDs))
		}
		out = append(out, E2Row{Selectivity: sel, Matches: len(sIDs), Sorted: sorted, Shuffled: shuffled})
	}
	return out, nil
}

// CheckE2Shape verifies E2's claim on a sweep: the sorted layout costs
// fewer joules than the shuffled one at every selectivity, and at least
// 100x fewer at selectivities up to 1e-4.
func CheckE2Shape(rows []E2Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("experiments: E2 sweep is empty")
	}
	for _, r := range rows {
		if r.Sorted.J >= r.Shuffled.J {
			return fmt.Errorf("experiments: E2 sel=%g: sorted %v is not cheaper than shuffled %v", r.Selectivity, r.Sorted.J, r.Shuffled.J)
		}
		if r.Selectivity <= 1e-4 && r.Sorted.J*100 > r.Shuffled.J {
			return fmt.Errorf("experiments: E2 sel=%g: sorted %v is not 100x cheaper than shuffled %v", r.Selectivity, r.Sorted.J, r.Shuffled.J)
		}
	}
	return nil
}

func runE2(w io.Writer) error {
	rows, err := E2Sweep(1 << 20)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "selectivity\trows\tsorted-time\tsorted-J\tsorted-bytes\tsorted-est-J\tshuffled-time\tshuffled-J\tshuffled-bytes\tshuffled-est-J\tshuffled/sorted-J")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0e\t%d\t%v\t%v\t%d\t%v\t%v\t%v\t%d\t%v\t%.1fx\n",
			r.Selectivity, r.Matches,
			r.Sorted.Time.Round(time.Microsecond), r.Sorted.J, r.Sorted.Bytes, r.Sorted.EstJ,
			r.Shuffled.Time.Round(time.Microsecond), r.Shuffled.J, r.Shuffled.Bytes, r.Shuffled.EstJ,
			float64(r.Shuffled.J/r.Sorted.J))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: both layouts answer the same relation; the sorted one is cheaper at every")
	fmt.Fprintln(w, "selectivity and by orders of magnitude at needle selectivities, where delta boundary")
	fmt.Fprintln(w, "search and zone maps touch a few frames instead of streaming every packed segment —")
	fmt.Fprintln(w, "the index lookup's saving, served by the storage format with no index to maintain.")
	fmt.Fprintln(w, "The planner's estimate prices both layouts as the same full scan: it does not yet")
	fmt.Fprintln(w, "see boundary search or zone pruning (ROADMAP item 3).")
	return nil
}
