package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/opt"
	"repro/internal/server"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E22",
		Title: "online SQL serving: deterministic replay through the eimdb-serve front end (extension)",
		Claim: "the serving pipeline — plan cache, per-client admission, queue backpressure, shared-scan batching, revocable leases — preserves the paper's determinism contract end to end: a fixed arrival script yields byte-identical HTTP response bodies and attributed energy books at every core budget and batching setting; only the fleet schedule and physical energy move (\"energy efficiency as a key optimization goal\", §I, carried into the online serving path)",
		Run:   runE22,
	})
}

// E22Row is one (budget, batching) arm of the serving sweep.
type E22Row struct {
	Budget      int
	Batch       bool
	Completed   int
	CacheHits   uint64
	CacheMisses uint64
	MakespanNS  int64
	FleetJ      energy.Joules
	SavedJ      energy.Joules
	PhysBytes   uint64
}

// e22Stats is the slice of the /stats body the sweep records — decoded
// through the server's public HTTP surface, not its internals.
type e22Stats struct {
	VirtualNowNS int64 `json:"virtual_now_ns"`
	Completed    int   `json:"completed"`
	Rejected     int   `json:"rejected"`
	PlanCache    struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
	Energy struct {
		SavedDynamicJ float64 `json:"saved_dynamic_j"`
		FleetJ        float64 `json:"fleet_j"`
	} `json:"energy"`
	Work struct {
		Physical energy.Counters `json:"physical"`
	} `json:"work"`
}

// E22Sweep replays one PointStorm arrival script through a fresh
// serving front end per (budget, batching) arm on the simulated clock,
// asserting the serving determinism contract as it goes: every arrival
// must serve 200, and every response BODY must be byte-identical to the
// first arm's (IDs, rows, counters, and energy bills are all
// schedule-invariant).  Stats are read back through GET /stats like any
// HTTP client would.
func E22Sweep(nRows, nQueries int, qps float64, budgets []int) ([]E22Row, error) {
	script := workload.PointStorm(17, nQueries, qps, 1.3, 40)
	var rows []E22Row
	var baseline []server.Played
	for _, budget := range budgets {
		for _, batch := range []bool{false, true} {
			eng, err := ordersEngine(nRows)
			if err != nil {
				return nil, err
			}
			s := server.New(eng, server.Config{
				Sched: core.SchedulerConfig{
					Budget:     budget,
					BatchScans: batch,
					Arbitrate:  true,
				},
				Objective: opt.MinEnergy,
			}, server.NewSimClock())
			played := s.Replay(script)
			for i, p := range played {
				if p.Status != 200 {
					return nil, fmt.Errorf("experiments: E22 b%d/batch=%v arrival %d served %d: %s",
						budget, batch, i, p.Status, p.Body)
				}
			}
			if baseline == nil {
				baseline = played
			} else {
				for i := range played {
					if played[i] != baseline[i] {
						return nil, fmt.Errorf("experiments: E22 b%d/batch=%v arrival %d body diverged from baseline arm",
							budget, batch, i)
					}
				}
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
			var st e22Stats
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				return nil, fmt.Errorf("experiments: E22 /stats: %w", err)
			}
			if st.Completed != nQueries || st.Rejected != 0 {
				return nil, fmt.Errorf("experiments: E22 b%d/batch=%v completed %d rejected %d, want %d/0",
					budget, batch, st.Completed, st.Rejected, nQueries)
			}
			rows = append(rows, E22Row{
				Budget:      budget,
				Batch:       batch,
				Completed:   st.Completed,
				CacheHits:   st.PlanCache.Hits,
				CacheMisses: st.PlanCache.Misses,
				MakespanNS:  st.VirtualNowNS,
				FleetJ:      energy.Joules(st.Energy.FleetJ),
				SavedJ:      energy.Joules(st.Energy.SavedDynamicJ),
				PhysBytes:   st.Work.Physical.BytesReadDRAM,
			})
		}
	}
	return rows, nil
}

func runE22(w io.Writer) error {
	rows, err := E22Sweep(1<<18, 64, 100_000, []int{1, 2, 8})
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "budget\tbatch\tdone\tcache-hit\tcache-miss\tmakespan\tfleet-J\tsaved-J\tphys-MB")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%v\t%.3f\t%.3f\t%.1f\n",
			r.Budget, r.Batch, r.Completed, r.CacheHits, r.CacheMisses,
			time.Duration(r.MakespanNS).Round(10*time.Microsecond),
			float64(r.FleetJ), float64(r.SavedJ), float64(r.PhysBytes)/1e6)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nshape: every arm served byte-identical response bodies (asserted during the")
	fmt.Fprintln(w, "sweep); batching arms stream fewer physical bytes and bank saved-J, and the")
	fmt.Fprintln(w, "plan cache turns all repeated storm texts into hits.")
	return nil
}
