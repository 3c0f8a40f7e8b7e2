// Command bench is the repository's benchmark: it loads a seeded
// dataset into a fresh engine, serves it with internal/server behind a
// real net/http server on a loopback port, drives one of five named
// workloads at it over TCP from this same process, checks every
// response against an independent oracle, and prints every metric by
// name and unit.  See README.md.
//
//	go run . -workload point_hot -seed 42 -seconds 16 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 42, "seed of the dataset and of every op stream")
	seconds := flag.Float64("seconds", 16, "length of the timed run")
	trace := flag.Int("trace", 0, "1 = traced pass (per-layer metrics, writes out/trace.json); 0 = end-to-end metrics")
	repeat := flag.Int("repeat", 1, "run the workload(s) this many times, seeds seed..seed+N-1, and print each metric's median/min/max/IQR")
	smoke := flag.Bool("smoke", false, "tiny dataset and a single set-up: a self-test, not a measurement")
	spinner := flag.Bool("spin", false, "internal: run as the keep-awake child of a measuring process (see awake.go)")
	flag.Parse()
	if *spinner {
		spin()
		return
	}
	if flag.NArg() > 0 || *repeat < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	if *workload == "all" || *repeat > 1 {
		names := workloadNames
		if *workload != "all" {
			names = []string{*workload}
		}
		if err := runChildren(names, *seed, *seconds, *trace, *repeat, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rows: fullRows, setups: 5, tracePath: "out/trace.json"}
	if *smoke {
		cfg.rows, cfg.setups = smokeRows, 1
	}
	stopSpinners, err := keepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: measuring without keep-awake spinners:", err)
		stopSpinners = func() {}
	}
	res, err := runWorkload(cfg)
	stopSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printResult(cfg.workload, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// allMetrics lists every metric in reporting order: end-to-end first.
func allMetrics() []metricDef { return append(append([]metricDef(nil), endToEnd...), perLayer...) }

// printResult prints every metric by name and unit, then the result
// object as the last line.
func printResult(workload string, res result) {
	for _, m := range allMetrics() {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Printf("%-12s %-34s %16.6f %s\n", workload, m.name, v.Value, v.Unit)
		}
	}
	line, _ := json.Marshal(res) // plain numbers, strings and bools
	fmt.Println(string(line))
}

// runChildren runs each (workload, repetition) in a process of its own
// — peak RSS and GC state then belong to that run alone, exactly as when
// a driver invokes one workload per process — and summarizes repeated
// runs.
func runChildren(names []string, seed uint64, seconds float64, trace, repeat int, smoke bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for _, name := range names {
		samples := make(map[string][]float64)
		for i := 0; i < repeat; i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				return fmt.Errorf("%s: no result line (%v): %w", name, err, jerr)
			}
			if err != nil || !res.Correct {
				failed = true
			}
			for m, v := range res.Metrics {
				samples[m] = append(samples[m], v.Value)
			}
		}
		if repeat > 1 {
			fmt.Printf("# %s: spread over %d runs (IQR as a share of the median)\n", name, repeat)
			fmt.Printf("# %-34s %14s %14s %14s %8s  %s\n", "metric", "median", "min", "max", "IQR", "unit")
			for _, m := range allMetrics() {
				if v := samples[m.name]; len(v) > 0 {
					s := summarize(v)
					fmt.Printf("# %-34s %14.4f %14.4f %14.4f %7.2f%%  %s\n", m.name, s.median, s.min, s.max, 100*s.iqr, m.unit)
				}
			}
		}
	}
	if failed {
		return fmt.Errorf("at least one run reported failed operations")
	}
	return nil
}
