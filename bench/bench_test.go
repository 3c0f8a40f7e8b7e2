package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSmoke runs every workload, untraced and traced, on the tiny
// dataset, and checks that what it emits is what BENCHMARK.json
// declares: same workloads, same metric names, same units, nothing
// failed.
func TestSmoke(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.3, trace: traced, rows: smokeRows, setups: 1,
				tracePath: filepath.Join(t.TempDir(), "trace.json")}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
				if _, err := os.Stat(cfg.tracePath); err != nil {
					t.Errorf("%s: traced run wrote no trace: %v", name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace=%v): %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (trace=%v): declared metric %s not emitted", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", name, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestRunnerCatchesWrongAnswers makes sure the response check is not
// vacuous: with the oracle's answer for one statement off by one row, the
// same healthy server's response must count as a failure.
func TestRunnerCatchesWrongAnswers(t *testing.T) {
	d := genDataset(7, smokeRows)
	def, err := newWorkload("point_hot", 7, d)
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(d)
	s, err := serve(config{seed: 7}, d, def, orc, fixedAnswers(def, orc), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.fx.close()
	if s.r.failures != 0 {
		t.Fatalf("warm-up counted %d failures", s.r.failures)
	}
	fresh := newRunner(s.fx, def, orc, fixedAnswers(def, orc), 7, false)
	a := fresh.want[3][""]
	a.count++
	fresh.want[3][""] = a
	if rec := fresh.do(op{stmt: 3}, s.fx.clock.epoch); rec.ok || fresh.failures != 1 {
		t.Errorf("a count off by one passed the check (ok=%v, failures=%d)", rec.ok, fresh.failures)
	}
	if rec := fresh.do(op{stmt: 4}, s.fx.clock.epoch); !rec.ok {
		t.Error("an untouched statement failed the check")
	}
}
