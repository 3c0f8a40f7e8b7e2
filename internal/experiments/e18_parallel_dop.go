package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/vec"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "morsel-driven parallelism: time/energy across DOP 1/2/4/8 (extension)",
		Claim: "\"the system should be able to run as fast as possible ... and to turn-off as many components as possible\" (§IV) — finishing a query on the right number of active cores and racing to idle beats both serial execution and maximal fan-out on energy",
		Run:   runE18,
	})
}

// E18Row is one degree-of-parallelism execution of the grouped
// aggregation.
type E18Row struct {
	DOP         int
	Wall        time.Duration // measured wall clock of this process
	Speedup     float64       // wall-clock speedup vs the first DOP
	ModelTime   time.Duration // sched.PriceDOP's predicted time
	ModelEnergy energy.Joules // sched.PriceDOP's predicted energy
	Groups      int
	Work        energy.Counters
}

// E18Sweep runs SELECT region, SUM(amount) FROM orders WHERE custkey < k
// GROUP BY region at every requested DOP over an n-row table, asserting
// that all DOPs produce byte-identical relations and identical total
// work counters.
func E18Sweep(n int, dops []int) ([]E18Row, error) {
	eng, err := ordersEngine(n)
	if err != nil {
		return nil, err
	}
	tab, err := eng.Catalog().Lookup("orders")
	if err != nil {
		return nil, err
	}
	ncust := int64(n/100 + 10)
	plan := &exec.HashAgg{
		Child: &exec.Scan{
			Source: tab,
			Select: []string{"region", "amount"},
			Preds:  []expr.Pred{{Col: "custkey", Op: vec.LT, Val: expr.IntVal(ncust * 4 / 5)}},
		},
		GroupBy: []string{"region"},
		Aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "amount", As: "rev"}},
	}
	memGB := float64(tab.Bytes()) / 1e9
	model := eng.Model()
	pstate := model.Core.MaxPState()
	// Model a machine with as many cores as the widest fan-out swept.
	machineCores := 1
	for _, d := range dops {
		if d > machineCores {
			machineCores = d
		}
	}

	var out []E18Row
	var baseRel *exec.Relation
	var baseWork energy.Counters
	for i, dop := range dops {
		ctx := exec.NewCtx()
		ctx.Lease = exec.NewLease(dop)
		start := time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
		rel, err := plan.Run(ctx)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
		work := ctx.Meter.Snapshot()
		if i == 0 {
			baseRel, baseWork = rel, work
		} else {
			if !reflect.DeepEqual(rel, baseRel) {
				return nil, fmt.Errorf("experiments: E18 DOP %d relation differs from DOP %d", dop, dops[0])
			}
			if work != baseWork {
				return nil, fmt.Errorf("experiments: E18 DOP %d counters differ from DOP %d", dop, dops[0])
			}
		}
		p := sched.PriceDOP(model, work, pstate, dop, machineCores, memGB)
		row := E18Row{
			DOP: dop, Wall: wall,
			ModelTime: p.Time, ModelEnergy: p.Energy,
			Groups: rel.N, Work: work,
		}
		if i > 0 && wall > 0 {
			row.Speedup = float64(out[0].Wall) / float64(wall)
		} else {
			row.Speedup = 1
		}
		out = append(out, row)
	}
	return out, nil
}

func runE18(w io.Writer) error {
	rows, err := E18Sweep(1<<20, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "dop\twall\tspeedup\tmodel-time\tmodel-J")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%.2fx\t%v\t%v\n",
			r.DOP, r.Wall.Round(100*time.Microsecond), r.Speedup,
			r.ModelTime.Round(10*time.Microsecond), r.ModelEnergy)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: results and counters are byte-identical at every DOP; wall clock falls")
	fmt.Fprintln(w, "with cores (on multi-core hardware) while the model's energy first falls —")
	fmt.Fprintln(w, "background power amortized by racing to idle — then rises as active-core power")
	fmt.Fprintln(w, "dominates: the energy-optimal DOP is finite and the scheduler can pick it.")
	return nil
}
