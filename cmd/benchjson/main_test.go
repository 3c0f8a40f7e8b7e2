package main

import (
	"strings"
	"testing"
)

func trajectory(jop float64, names ...string) *File {
	f := &File{Schema: "bench-trajectory/v1"}
	for _, n := range names {
		f.Benchmarks = append(f.Benchmarks, Bench{
			Name:       n,
			Iterations: 1,
			Metrics:    map[string]float64{"J/op": jop, "bytes-touched/op": 1e6},
		})
	}
	return f
}

var gated = []string{"J/op", "bytes-touched/op"}

// TestDiffPassesWithinTolerance: identical runs and sub-tolerance drift
// both pass.
func TestDiffPassesWithinTolerance(t *testing.T) {
	base := trajectory(0.100, "BenchmarkA-2", "BenchmarkB-2")
	if report, _, failed := diff(base, trajectory(0.100, "BenchmarkA-2", "BenchmarkB-2"), gated, 0.01); failed {
		t.Fatalf("identical run failed:\n%s", report)
	}
	if report, _, failed := diff(base, trajectory(0.1005, "BenchmarkA-2", "BenchmarkB-2"), gated, 0.01); failed {
		t.Fatalf("+0.5%% drift within ±1%% failed:\n%s", report)
	}
}

// TestDiffFailsOnRegression is the CI gate's contract: an injected ≥1%
// J/op regression fails the comparison.
func TestDiffFailsOnRegression(t *testing.T) {
	base := trajectory(0.100, "BenchmarkA-2")
	report, _, failed := diff(base, trajectory(0.102, "BenchmarkA-2"), gated, 0.01)
	if !failed {
		t.Fatalf("+2%% J/op regression passed:\n%s", report)
	}
	if !strings.Contains(report, "FAIL BenchmarkA-2 J/op") {
		t.Fatalf("report does not name the regressed metric:\n%s", report)
	}
}

// TestDiffNotesImprovement: past-tolerance improvements warn about the
// stale baseline but do not fail the job.
func TestDiffNotesImprovement(t *testing.T) {
	base := trajectory(0.100, "BenchmarkA-2")
	report, _, failed := diff(base, trajectory(0.090, "BenchmarkA-2"), gated, 0.01)
	if failed {
		t.Fatalf("-10%% improvement failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "stale") {
		t.Fatalf("improvement not flagged:\n%s", report)
	}
}

// TestDiffFailsOnStructuralDrift: dropped, renamed, or novel benchmarks
// fail in either direction, and a vanished gated metric fails too.
func TestDiffFailsOnStructuralDrift(t *testing.T) {
	base := trajectory(0.1, "BenchmarkA-2", "BenchmarkB-2")
	if report, _, failed := diff(base, trajectory(0.1, "BenchmarkA-2"), gated, 0.01); !failed {
		t.Fatalf("dropped benchmark passed:\n%s", report)
	}
	if report, _, failed := diff(base, trajectory(0.1, "BenchmarkA-2", "BenchmarkB-2", "BenchmarkC-2"), gated, 0.01); !failed {
		t.Fatalf("novel benchmark passed (baseline must be refreshed explicitly):\n%s", report)
	}
	cur := trajectory(0.1, "BenchmarkA-2", "BenchmarkB-2")
	delete(cur.Benchmarks[0].Metrics, "J/op")
	if report, _, failed := diff(base, cur, gated, 0.01); !failed {
		t.Fatalf("vanished gated metric passed:\n%s", report)
	}
	// The inverse hole: a baseline entry missing a gated metric the run
	// still emits would ungate that benchmark forever — it must fail.
	holed := trajectory(0.1, "BenchmarkA-2", "BenchmarkB-2")
	delete(holed.Benchmarks[0].Metrics, "J/op")
	if report, _, failed := diff(holed, trajectory(0.1, "BenchmarkA-2", "BenchmarkB-2"), gated, 0.01); !failed {
		t.Fatalf("holed baseline passed:\n%s", report)
	}
	// Absent from BOTH sides is a benchmark that never emits the metric.
	both := trajectory(0.1, "BenchmarkA-2", "BenchmarkB-2")
	delete(both.Benchmarks[0].Metrics, "J/op")
	if report, _, failed := diff(both, cur, gated, 0.01); failed {
		t.Fatalf("metric absent from both sides failed:\n%s", report)
	}
}

// TestDiffZeroBaseline: a zero baseline value only accepts zero.
func TestDiffZeroBaseline(t *testing.T) {
	base := trajectory(0, "BenchmarkA-2")
	if report, _, failed := diff(base, trajectory(0, "BenchmarkA-2"), gated, 0.01); failed {
		t.Fatalf("zero == zero failed:\n%s", report)
	}
	if report, _, failed := diff(base, trajectory(0.001, "BenchmarkA-2"), gated, 0.01); !failed {
		t.Fatalf("nonzero against zero baseline passed:\n%s", report)
	}
}

// TestParseRoundTrip: the parser reads real bench output, keeping the
// custom metrics and dropping the single-shot wall-clock ones.
func TestParseRoundTrip(t *testing.T) {
	const out = `goos: linux
goarch: amd64
cpu: Intel(R) Xeon(R)
BenchmarkE21MultiQuery/managed-2   1   398038744 ns/op   21.07 MB/s   0.05236 J/op   14989856 bytes-touched/op
PASS
`
	f, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Goos != "linux" {
		t.Fatalf("parse lost data: %+v", f)
	}
	b := f.Benchmarks[0]
	if b.Metrics["J/op"] != 0.05236 || b.Metrics["bytes-touched/op"] != 14989856 {
		t.Fatalf("metrics lost: %+v", b.Metrics)
	}
	if len(b.Metrics) != 2 {
		t.Fatalf("wall-clock metrics recorded: %+v", b.Metrics)
	}
}

// TestAnnotateSyntheticRegression is the annotation contract: a
// synthetic +2% J/op regression must surface as a ::error workflow
// command carrying the baseline file and the benchmark/metric title,
// and a past-tolerance improvement as a ::warning.
func TestAnnotateSyntheticRegression(t *testing.T) {
	base := trajectory(0.100, "BenchmarkA-2", "BenchmarkB-2")
	cur := trajectory(0.102, "BenchmarkA-2", "BenchmarkB-2")
	cur.Benchmarks[1].Metrics["J/op"] = 0.090 // B improves past tolerance
	_, findings, failed := diff(base, cur, gated, 0.01)
	if !failed {
		t.Fatal("synthetic regression passed the gate")
	}
	var sb strings.Builder
	annotate(&sb, findings, "BENCH_BASELINE.json")
	out := sb.String()
	if !strings.Contains(out,
		"::error file=BENCH_BASELINE.json,title=bench gate%3A BenchmarkA-2 J/op::") {
		t.Fatalf("regression did not render as ::error with file and title:\n%s", out)
	}
	if !strings.Contains(out, "::warning file=BENCH_BASELINE.json,title=bench gate%3A BenchmarkB-2 J/op::") ||
		!strings.Contains(out, "baseline is stale") {
		t.Fatalf("stale-baseline improvement did not render as ::warning:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "::error ") && !strings.HasPrefix(line, "::warning ") {
			t.Fatalf("non-workflow-command line in annotation stream: %q", line)
		}
	}
}

// TestAnnotateStructuralFinding: whole-benchmark findings annotate
// without a metric in the title.
func TestAnnotateStructuralFinding(t *testing.T) {
	base := trajectory(0.1, "BenchmarkA-2", "BenchmarkGone-2")
	_, findings, failed := diff(base, trajectory(0.1, "BenchmarkA-2"), gated, 0.01)
	if !failed {
		t.Fatal("dropped benchmark passed")
	}
	var sb strings.Builder
	annotate(&sb, findings, "BENCH_BASELINE.json")
	if !strings.Contains(sb.String(),
		"::error file=BENCH_BASELINE.json,title=bench gate%3A BenchmarkGone-2::benchmark missing from this run") {
		t.Fatalf("structural finding not annotated:\n%s", sb.String())
	}
}

// TestWorkflowCommandEscaping: %, newlines, and property delimiters
// cannot smuggle extra commands or properties into the stream.
func TestWorkflowCommandEscaping(t *testing.T) {
	if got := ghData("50% worse\nnext"); got != "50%25 worse%0Anext" {
		t.Fatalf("ghData = %q", got)
	}
	if got := ghProp("a:b,c%d"); got != "a%3Ab%2Cc%25d" {
		t.Fatalf("ghProp = %q", got)
	}
	var sb strings.Builder
	annotate(&sb, []Finding{{Kind: "error", Bench: "B", Metric: "J/op", Msg: "x\n::error ::fake"}}, "base,file.json")
	out := sb.String()
	// Commands are recognized only at line start; the escaped payload must
	// leave exactly one physical line, whatever it contains.
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("payload smuggled a second line:\n%q", out)
	}
	if strings.Contains(out, "\n::error") || strings.Contains(strings.TrimPrefix(out, "::error"), "\n::") {
		t.Fatalf("payload smuggled a second command:\n%q", out)
	}
	if !strings.Contains(out, "file=base%2Cfile.json,") {
		t.Fatalf("baseline path delimiters unescaped:\n%q", out)
	}
}
