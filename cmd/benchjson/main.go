// Command benchjson converts `go test -bench` output into the modeled
// baseline JSON (BENCH_BASELINE.json): one record per benchmark with the
// deterministic custom metrics the root benchmarks emit (J/op,
// bytes-touched/op, merge-J, ...), so CI runs leave comparable data
// points instead of scrolled-away logs.
//
// Usage:
//
//	go test -run '^$' -bench <pattern> -benchtime=1x -count=1 . | \
//	    go run ./cmd/benchjson -out BENCH_CI.json \
//	        -baseline BENCH_BASELINE.json -tol 0.01 -report bench-diff.txt
//
// Wall-clock metrics (ns/op, MB/s) are not recorded: a single
// -benchtime=1x shot on a shared runner swings 2-3x between runs and
// nobody judges it — bench/ is where the clock is judged.  The
// DETERMINISTIC custom metrics — J/op and bytes-touched/op are pure
// functions of the energy model over seeded workloads — are a different
// story: with -baseline the tool compares them against the committed
// file and exits nonzero when a benchmark regresses past -tol
// (relative), when a gated metric disappears, or when the benchmark sets
// diverge.  Improvements past the tolerance only warn: they mean the
// committed baseline is stale, not that the build is broken.
//
// Under GitHub Actions (or with -annotate), every gate failure also
// prints a ::error workflow command and every stale-baseline
// improvement a ::warning, both carrying file=<baseline> and the
// benchmark/metric in the title — so regressions surface as inline
// annotations on the Actions summary instead of only inside a scrolled
// step log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark result: the -N suffix (GOMAXPROCS) is kept in
// the name so runs on differently shaped machines stay distinguishable.
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the committed JSON shape.
type File struct {
	Schema     string  `json:"schema"`
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "bench output to read (default stdin)")
	out := flag.String("out", "", "JSON file to write (default stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON to gate against")
	tol := flag.Float64("tol", 0.01, "relative tolerance for gated metrics")
	metrics := flag.String("metrics", "J/op,bytes-touched/op",
		"comma-separated deterministic metrics to gate")
	reportPath := flag.String("report", "", "file to write the diff report to (always printed on failure)")
	annotateFlag := flag.Bool("annotate", os.Getenv("GITHUB_ACTIONS") == "true",
		"emit GitHub Actions ::error/::warning workflow commands for gate findings (default: on under GITHUB_ACTIONS)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	file, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(file.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	if *baseline == "" {
		return
	}
	base, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	report, findings, failed := diff(base, file, splitMetrics(*metrics), *tol)
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(report), 0o644); err != nil {
			fatal(err)
		}
	}
	// stderr, not stdout: with -out omitted, stdout is the JSON stream
	// and appending the report there would corrupt a piped consumer.
	fmt.Fprint(os.Stderr, report)
	if *annotateFlag {
		// The runner recognizes workflow commands on either stream; use
		// stdout when it is free, stderr when it carries the JSON.
		dst := os.Stdout
		if *out == "" {
			dst = os.Stderr
		}
		annotate(dst, findings, *baseline)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: deterministic metrics regressed against", *baseline)
		os.Exit(1)
	}
}

// Finding is one gate outcome worth surfacing outside the text report: a
// regression or structural failure (Kind "error") or a past-tolerance
// improvement that means the committed baseline is stale (Kind
// "warning").
type Finding struct {
	Kind   string // "error" | "warning"
	Bench  string
	Metric string // empty for structural findings (whole benchmark)
	Msg    string
}

// annotate renders findings as GitHub Actions workflow commands.  The
// file property points at the committed baseline — the file a reviewer
// regenerates to acknowledge an intended shift — and the title names the
// benchmark and metric so the annotation reads standalone on the run
// summary.
func annotate(w io.Writer, findings []Finding, baseline string) {
	for _, f := range findings {
		title := "bench gate: " + f.Bench
		if f.Metric != "" {
			title += " " + f.Metric
		}
		fmt.Fprintf(w, "::%s file=%s,title=%s::%s\n",
			f.Kind, ghProp(baseline), ghProp(title), ghData(f.Msg))
	}
}

// ghData escapes a workflow-command data payload (%, CR, LF).
func ghData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghProp escapes a workflow-command property value (data escapes plus
// the property delimiters).
func ghProp(s string) string {
	s = ghData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

// load reads a committed baseline file.
func load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func splitMetrics(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// diff gates the current run against the baseline: the benchmark sets
// must match exactly (a silently dropped or renamed benchmark is a hole
// in the trajectory), and every gated metric present in the baseline
// must be present now and within tol relatively.  Regressions fail;
// improvements past tol only flag the baseline as stale.  Every FAIL
// line and every stale-baseline note also becomes a Finding, the feed
// for the GitHub Actions annotations.
func diff(base, cur *File, gated []string, tol float64) (string, []Finding, bool) {
	var b strings.Builder
	var findings []Finding
	failed := false
	fail := func(bench, metric, msg string) {
		if metric != "" {
			fmt.Fprintf(&b, "FAIL %s %s: %s\n", bench, metric, msg)
		} else {
			fmt.Fprintf(&b, "FAIL %s: %s\n", bench, msg)
		}
		findings = append(findings, Finding{Kind: "error", Bench: bench, Metric: metric, Msg: msg})
		failed = true
	}
	curBy := make(map[string]Bench, len(cur.Benchmarks))
	for _, bench := range cur.Benchmarks {
		curBy[bench.Name] = bench
	}
	baseBy := make(map[string]Bench, len(base.Benchmarks))
	for _, bench := range base.Benchmarks {
		baseBy[bench.Name] = bench
	}
	fmt.Fprintf(&b, "benchjson diff: %d baseline / %d current benchmarks, tol ±%.1f%%, gated: %s\n",
		len(base.Benchmarks), len(cur.Benchmarks), tol*100, strings.Join(gated, " "))
	for _, bench := range base.Benchmarks {
		if _, ok := curBy[bench.Name]; !ok {
			fail(bench.Name, "", "benchmark missing from this run")
		}
	}
	for _, bench := range cur.Benchmarks {
		if _, ok := baseBy[bench.Name]; !ok {
			fail(bench.Name, "", "benchmark not in baseline (refresh the committed file)")
		}
	}
	for _, bench := range base.Benchmarks {
		now, ok := curBy[bench.Name]
		if !ok {
			continue
		}
		for _, m := range gated {
			want, inBase := bench.Metrics[m]
			got, inCur := now.Metrics[m]
			if !inBase {
				// A baseline entry without the gated metric would let
				// every future regression of it ship silently — refuse
				// the hole rather than skip it.  (Absent from both
				// sides = a benchmark that never emits the metric.)
				if inCur {
					fail(bench.Name, m, "metric absent from baseline (refresh the committed file)")
				}
				continue
			}
			if !inCur {
				fail(bench.Name, m, fmt.Sprintf("metric disappeared (baseline %g)", want))
				continue
			}
			switch {
			case got > want*(1+tol):
				fail(bench.Name, m, fmt.Sprintf("%g -> %g (+%.2f%%)", want, got, rel(want, got)))
			case got < want*(1-tol):
				msg := fmt.Sprintf("%g -> %g (%.2f%%): improvement, baseline is stale", want, got, rel(want, got))
				fmt.Fprintf(&b, "note %s %s: %s\n", bench.Name, m, msg)
				findings = append(findings, Finding{Kind: "warning", Bench: bench.Name, Metric: m, Msg: msg})
			default:
				fmt.Fprintf(&b, "ok   %s %s: %g -> %g\n", bench.Name, m, want, got)
			}
		}
	}
	if !failed {
		fmt.Fprintln(&b, "PASS: no deterministic-metric regressions")
	}
	return b.String(), findings, failed
}

// rel returns the signed relative change in percent.
func rel(want, got float64) float64 {
	if want == 0 {
		return 0
	}
	return (got - want) / want * 100
}

// wallClock lists the single-shot timing metrics parse drops.
var wallClock = map[string]bool{"ns/op": true, "MB/s": true}

// parse scans bench output: header lines (goos/goarch/cpu) fill the file
// metadata, "Benchmark..." lines become records.  The line grammar after
// the name and iteration count is value/unit pairs, which covers every
// ReportMetric unit; the wall-clock pairs are skipped.
func parse(r io.Reader) (*File, error) {
	file := &File{Schema: "bench-trajectory/v1"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			file.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			file.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			file.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad metric value %q", line, fields[i])
			}
			if !wallClock[fields[i+1]] {
				b.Metrics[fields[i+1]] = v
			}
		}
		file.Benchmarks = append(file.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(file.Benchmarks, func(i, j int) bool {
		return file.Benchmarks[i].Name < file.Benchmarks[j].Name
	})
	return file, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
