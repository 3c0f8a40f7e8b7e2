package shard

import (
	"fmt"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Scan reads a sharded table with conjunctive predicates pushed down, as
// an exec.Node: whole shards are pruned against the predicates before a
// morsel is enumerated (pruned shards charge their logical rows and zero
// physical bytes, the zone-map convention one level up), every surviving
// shard is read by one flat exec.Scan that also selects the hidden
// sequence, and a k-way merge by it restores the unsharded row order.
// Output rows, their order, and the charged counters are a pure function
// of (snapshot, predicates) at every DOP; the rows are the flat table's
// at every shard count.
type Scan struct {
	Source *Table
	Select []string // output columns; empty = all user columns
	Preds  []expr.Pred
}

// Label implements exec.Node.
func (s *Scan) Label() string {
	parts := []string{fmt.Sprintf("Scan(%s, shards=%d)", s.Source.Name, s.Source.NumShards())}
	for _, p := range s.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ")
}

// Kids implements exec.Node.
func (s *Scan) Kids() []exec.Node { return nil }

// Run implements exec.Node.
func (s *Scan) Run(ctx *exec.Ctx) (*exec.Relation, error) {
	schema := s.Source.Schema()
	names := s.Select
	if len(names) == 0 {
		for _, d := range schema {
			names = append(names, d.Name)
		}
	}
	tmpl := make([]exec.Col, len(names))
	for i, n := range names {
		ci := schema.ColIndex(n)
		if ci < 0 {
			return nil, fmt.Errorf("shard: table %s has no column %q", s.Source.Name, n)
		}
		tmpl[i] = exec.Col{Name: n, Type: schema[ci].Type}
	}
	sel := append(append([]string(nil), names...), SeqCol)
	var parts []*exec.Relation
	err := Each(ctx, s.Source.Shards(), s.Preds, func(i int, sh *colstore.Table) error {
		rel, err := (&exec.Scan{Source: sh, Select: sel, Preds: s.Preds}).Run(ctx)
		parts = append(parts, rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	out, w := mergeBySeq(parts, tmpl)
	if len(parts) > 1 {
		// A single surviving shard needs no interleave: its rows are
		// already in global order.
		ctx.Charge(fmt.Sprintf("shard-merge(%d shards)", len(parts)), out.N, w)
	}
	return out, nil
}

// Each runs fn over every shard the predicates can touch, in shard
// order, and charges the pruned shards' logical rows: they were
// considered, but not a single byte of them streamed.
func Each(ctx *exec.Ctx, shards []*colstore.Table, preds []expr.Pred, fn func(i int, sh *colstore.Table) error) error {
	keep := Prune(shards, preds)
	var prunedRows uint64
	npruned := 0
	for i, sh := range shards {
		if !keep[i] {
			prunedRows += uint64(sh.RowsAsOf(ctx.SnapTS))
			npruned++
			continue
		}
		if err := fn(i, sh); err != nil {
			return err
		}
	}
	if npruned > 0 {
		ctx.Charge(fmt.Sprintf("shard-prune(%d/%d)", npruned, len(shards)), 0,
			energy.Counters{TuplesIn: prunedRows})
	}
	return nil
}

// Prune reports, per shard of one table, whether the predicates can touch
// any of its rows.  The decision reads live per-shard column min/max
// (zone stats over all physical rows — conservative for every snapshot),
// so pruning is always safe.  Only BIGINT predicates prune; anything
// unresolvable keeps the shard.  A lone shard is never pruned: with
// nothing beside it to skip to, its own segment zone maps already make
// the same decision and charge for it, empty or disjoint alike.
func Prune(shards []*colstore.Table, preds []expr.Pred) []bool {
	keep := make([]bool, len(shards))
	if len(shards) == 1 {
		keep[0] = true
		return keep
	}
	for i, sh := range shards {
		if sh.Rows() == 0 {
			continue // empty shard: nothing to scan
		}
		keep[i] = true
		for _, p := range preds {
			if p.Val.Kind != colstore.Int64 {
				continue
			}
			c, err := sh.IntCol(p.Col)
			if err != nil {
				continue
			}
			min, max, ok := c.MinMax()
			if ok && predDisjoint(p.Op, p.Val.I, min, max) {
				keep[i] = false
				break
			}
		}
	}
	return keep
}

// predDisjoint reports whether `col op v` can match nothing when every
// value of col lies in [min, max].
func predDisjoint(op vec.CmpOp, v, min, max int64) bool {
	switch op {
	case vec.EQ:
		return v < min || v > max
	case vec.NE:
		return min == max && min == v
	case vec.LT:
		return min >= v
	case vec.LE:
		return min > v
	case vec.GT:
		return max <= v
	case vec.GE:
		return max < v
	}
	return false
}

// mergeBySeq merges the parts — each selecting tmpl's user columns and
// then SeqCol, each ascending in it — into one relation in global
// sequence order, dropping the sequence column, and prices the merge.
// tmpl supplies the output schema for the zero-part case.
// Sequences are globally unique, so the order — and therefore the output
// bytes — is total and deterministic.  Per-shard VARCHAR columns meet
// here: their dictionaries become one (unionDict), and each code is
// rewritten through its part's translation array as it is copied.
func mergeBySeq(parts []*exec.Relation, tmpl []exec.Col) (*exec.Relation, energy.Counters) {
	width := len(tmpl)
	switch len(parts) {
	case 0:
		return &exec.Relation{Cols: tmpl}, energy.Counters{}
	case 1:
		return &exec.Relation{N: parts[0].N, Cols: parts[0].Cols[:width]}, energy.Counters{}
	}
	total := 0
	for _, p := range parts {
		total += p.N
	}
	// One linear min-scan over the part cursors per output row (shard
	// counts are small): part[o], row[o] is output row o's source.
	idx := make([]int, len(parts))
	part := make([]int32, total)
	row := make([]int32, total)
	for o := 0; o < total; o++ {
		best := -1
		var bs int64
		for pi, p := range parts {
			if idx[pi] >= p.N {
				continue
			}
			if s := p.Cols[width].I[idx[pi]]; best < 0 || s < bs {
				best, bs = pi, s
			}
		}
		part[o], row[o] = int32(best), int32(idx[best])
		idx[best]++
	}

	out := &exec.Relation{N: total, Cols: make([]exec.Col, width)}
	var w energy.Counters
	srcs := make([]*exec.Col, len(parts))
	for ci := 0; ci < width; ci++ {
		for pi, p := range parts {
			srcs[pi] = &p.Cols[ci]
		}
		oc := exec.Col{Name: tmpl[ci].Name, Type: tmpl[ci].Type}
		if oc.Type == colstore.Float64 {
			oc.F = make([]float64, total)
			for o := range oc.F {
				oc.F[o] = srcs[part[o]].F[row[o]]
			}
			out.Cols[ci] = oc
			continue
		}
		var trans [][]int64
		if oc.Type == colstore.String {
			var uw energy.Counters
			oc.Dict, trans, uw = unionDict(srcs)
			w.Add(uw)
		}
		oc.I = make([]int64, total)
		for o := range oc.I {
			v := srcs[part[o]].I[row[o]]
			if trans != nil {
				v = trans[part[o]][v]
			}
			oc.I[o] = v
		}
		out.Cols[ci] = oc
	}
	moved := out.Bytes()
	w.Add(energy.Counters{
		TuplesIn:         uint64(total),
		TuplesOut:        uint64(total),
		Instructions:     uint64(total) * uint64(len(parts)),
		BytesReadDRAM:    moved,
		BytesWrittenDRAM: moved,
	})
	return out, w
}

// unionDict is the one dictionary of the same VARCHAR column read from
// several shards: the first column's entries in code order, then each
// later column's entries not yet seen.  trans[p][code] is column p's code
// in the union; trans is nil when the columns already share one
// dictionary.  It is priced as the dictionary bytes read plus the
// translation codes written — the rewrite itself is one array load per
// code the merge copies anyway.
func unionDict(cols []*exec.Col) ([]string, [][]int64, energy.Counters) {
	first := cols[0].Dict
	shared := true
	for _, c := range cols {
		shared = shared && len(c.Dict) == len(first) && (len(first) == 0 || &c.Dict[0] == &first[0])
	}
	if shared {
		return first, nil, energy.Counters{}
	}
	ids := make(map[string]int64)
	var dict []string
	trans := make([][]int64, len(cols))
	var dictBytes, entries uint64
	for p, c := range cols {
		trans[p] = make([]int64, len(c.Dict))
		for code, s := range c.Dict {
			id, ok := ids[s]
			if !ok {
				id = int64(len(dict))
				ids[s] = id
				dict = append(dict, s)
			}
			trans[p][code] = id
			dictBytes += uint64(len(s))
		}
		entries += uint64(len(c.Dict))
	}
	return dict, trans, energy.Counters{
		BytesReadDRAM:    dictBytes,
		BytesWrittenDRAM: entries * 8,
		CacheMisses:      entries / 2,
		Instructions:     entries * 8,
	}
}
