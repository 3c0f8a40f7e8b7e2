package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares one metric the harness emits.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics and their units, in reporting
// order.  BENCHMARK.json declares the same names; bench_test.go checks
// that the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"model_mj_per_op", "mJ"},
	{"peak_rss_mb", "MB"},
	{"store_bytes_per_user_byte", "ratio"},
}

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMS returns the sorted end-due latencies of the successful
// operations that keep passes.
func latenciesMS(recs []opRecord, keep func(opRecord) bool) []float64 {
	var l []float64
	for _, r := range recs {
		if r.ok && keep(r) {
			l = append(l, ms(r.end-r.due))
		}
	}
	sort.Float64s(l)
	return l
}

// windowQuantiles cuts the run into equal time windows of at least 100
// successful operations each (1 to 16 windows, so ten samples lie beyond
// each window's p90), takes each window's median and 90th-percentile
// latency, and returns the medians of those over the windows.  A burst —
// a neighbour on the host, a GC cycle, in an open loop the queue one
// stall builds — then spoils the windows it touches, not the run's tail.
func windowQuantiles(recs []opRecord, wall time.Duration) (p50, p90 float64, windows, samples int) {
	for _, r := range recs {
		if r.ok {
			samples++
		}
	}
	windows = min(max(samples/100, 1), 16)
	per := make([][]float64, windows)
	for _, r := range recs {
		if r.ok {
			w := min(int(int64(r.end)*int64(windows)/int64(wall+1)), windows-1)
			per[w] = append(per[w], ms(r.end-r.due))
		}
	}
	var p50s, p90s []float64
	for _, l := range per {
		if len(l) > 0 {
			sort.Float64s(l)
			p50s = append(p50s, quantile(l, 0.50))
			p90s = append(p90s, quantile(l, 0.90))
		}
	}
	return median(p50s), median(p90s), windows, samples
}

func anyOp(opRecord) bool     { return true }
func isRead(r opRecord) bool  { return r.write == nil }
func isWrite(r opRecord) bool { return r.write != nil }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// throughput is correct responses per second of timed wall.
func throughput(recs []opRecord, wall time.Duration) float64 {
	ok := 0
	for _, r := range recs {
		if r.ok {
			ok++
		}
	}
	return float64(ok) / wall.Seconds()
}

// meanModelMJ is the mean modeled energy of the 200 bodies, in mJ.
func meanModelMJ(recs []opRecord) float64 {
	var j float64
	n := 0
	for _, r := range recs {
		if r.ok {
			j += r.joules
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return j / float64(n) * 1000
}

// spread summarizes one metric across repeated runs.
type spread struct {
	median, min, max float64
	// iqr is the distance between the first and third quartiles as a
	// share of the median — the number the benchmark's bounds are held
	// against.
	iqr float64
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance check uses.  It
// needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(v []float64) spread {
	s := spread{median: median(v), min: v[0], max: v[0]}
	for _, x := range v {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	if len(v) >= 2 && s.median != 0 {
		q1, q3 := quartiles(v)
		s.iqr = (q3 - q1) / math.Abs(s.median)
	}
	return s
}
