package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary.  Spans of one
// operation share a trace id; Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Weight is set on the roots of ladder traces: the share of the
	// workload's operations that trace stands for.
	Weight float64 `json:"weight,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover.  Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// closure compares the sum of every span's self time in a trace with
// the duration of the trace's root.  When every child lies inside its
// parent the two are equal; a child measured longer than its parent
// makes the sum exceed the root, and the returned relative error says
// by how much.
func closure(spans []span) (sumSelf, root int64, relErr float64) {
	for _, t := range selfTimes(spans) {
		sumSelf += t
	}
	for _, s := range spans {
		if s.Parent == 0 {
			root += s.dur()
		}
	}
	if root != 0 {
		relErr = float64(sumSelf-root) / float64(root)
		if relErr < 0 {
			relErr = -relErr
		}
	}
	return sumSelf, root, relErr
}

// traceWeights maps each trace id to its root span's weight.
func traceWeights(spans []span) map[int]float64 {
	weight := make(map[int]float64)
	for _, s := range spans {
		if s.Parent == 0 {
			weight[s.Trace] = s.Weight
		}
	}
	return weight
}

// selfByName sums weighted self time per span name: each span counts
// with the weight of its trace's root.
func selfByName(spans []span) map[string]float64 {
	weight := traceWeights(spans)
	byID := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += weight[s.Trace] * float64(byID[s.ID])
	}
	return out
}

// writeTrace writes the spans kept in memory during the run.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
