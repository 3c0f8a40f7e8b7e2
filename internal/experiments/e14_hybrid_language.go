package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/vec"
)

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "hybrid query language: declarative SQL = procedural pipeline",
		Claim: "\"the original idea of declarative query languages ... is still relevant. Additionally procedural elements are extremely worthwhile and should be part of a next generation data programming language\" (§II)",
		Run:   runE14,
	})
}

// E14Result reports the equivalence check.
type E14Result struct {
	PlansEqual   bool
	RowsEqual    bool
	ParseTime    time.Duration // SQL text -> logical query
	BuildTime    time.Duration // procedural builder -> logical query
	SQLQueryTime time.Duration
}

// E14Check runs the same query through both language fronts.
func E14Check(rows int) (*E14Result, error) {
	e, err := core.OrdersEngine(rows)
	if err != nil {
		return nil, err
	}
	text := `SELECT region, SUM(amount) AS rev, COUNT(*) AS n FROM orders
		WHERE custkey < 100 AND amount > 50 GROUP BY region ORDER BY rev DESC`

	start := time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	const parseReps = 1000
	for i := 0; i < parseReps-1; i++ {
		if _, err := sql.Parse(text); err != nil {
			return nil, err
		}
	}
	if _, err := sql.Parse(text); err != nil {
		return nil, err
	}
	parse := time.Since(start) / parseReps //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time

	start = time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	var builder *core.Builder
	for i := 0; i < parseReps; i++ {
		builder = e.From("orders").
			Where("custkey", vec.LT, expr.IntVal(100)).
			Where("amount", vec.GT, expr.FloatVal(50)).
			Select("region").
			Agg(expr.AggSum, "amount", "rev").
			Count("n").
			GroupBy("region").
			OrderBy("rev", true)
	}
	build := time.Since(start) / parseReps //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time

	start = time.Now() //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	resSQL, err := e.Query(text)
	if err != nil {
		return nil, err
	}
	sqlTime := time.Since(start) //lint:allow determinism: wall-clock display column; the determinism contract covers relations and counters, never wall time
	resB, err := builder.Run()
	if err != nil {
		return nil, err
	}

	out := &E14Result{
		PlansEqual:   resSQL.PlanInfo.Explain == resB.PlanInfo.Explain,
		RowsEqual:    resSQL.Rel.N == resB.Rel.N,
		ParseTime:    parse,
		BuildTime:    build,
		SQLQueryTime: sqlTime,
	}
	if out.RowsEqual {
		for r := 0; r < resSQL.Rel.N; r++ {
			a, b := fmt.Sprint(resSQL.Rel.Row(r)), fmt.Sprint(resB.Rel.Row(r))
			if a != b {
				out.RowsEqual = false
				break
			}
		}
	}
	return out, nil
}

func runE14(w io.Writer) error {
	res, err := E14Check(200_000)
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "check\tvalue")
	fmt.Fprintf(tw, "plans identical\t%v\n", res.PlansEqual)
	fmt.Fprintf(tw, "results identical\t%v\n", res.RowsEqual)
	fmt.Fprintf(tw, "SQL parse time\t%v\n", res.ParseTime)
	fmt.Fprintf(tw, "builder time\t%v\n", res.BuildTime)
	fmt.Fprintf(tw, "end-to-end query\t%v\n", res.SQLQueryTime.Round(10*time.Microsecond))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: both language fronts lower to one logical form, one optimizer, one")
	fmt.Fprintln(w, "engine; front-end cost is microseconds against millisecond execution.")
	return nil
}
