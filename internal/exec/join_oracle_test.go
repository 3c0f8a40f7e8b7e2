package exec

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/energy"
)

// mapJoin is the oracle join node: serialHashJoin over its two inputs.
// It shares nothing with the production join but mergeJoinColumns (the
// output naming rule) and the dictionary translation.
type mapJoin struct {
	Left, Right       Node
	LeftKey, RightKey string
}

func (j *mapJoin) Label() string { return fmt.Sprintf("mapJoin(%s = %s)", j.LeftKey, j.RightKey) }
func (j *mapJoin) Kids() []Node  { return []Node{j.Left, j.Right} }

func (j *mapJoin) Run(ctx *Ctx) (*Relation, error) {
	left, err := j.Left.Run(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Run(ctx)
	if err != nil {
		return nil, err
	}
	return serialHashJoin(ctx, j.Label(), left, right, j.LeftKey, j.RightKey)
}

// buildWork / probeWork price key touches at their actual width: 8
// bytes for integers and dictionary codes, the materialized string
// bytes plus header on the raw-string path — the byte asymmetry the
// compressed-key join exists to exploit.  stringKeyWidth averages the
// width over the keys a string-path join actually hashes.
func stringKeyWidth(keys []string) float64 {
	if len(keys) == 0 {
		return 16
	}
	var b uint64
	for _, s := range keys {
		b += uint64(len(s)) + 16
	}
	return float64(b) / float64(len(keys))
}

// joinKeys resolves and type-checks the two key columns.
func joinKeys(left, right *Relation, leftKey, rightKey string) (lk, rk *Col, err error) {
	lk, err = left.Col(leftKey)
	if err != nil {
		return nil, nil, err
	}
	rk, err = right.Col(rightKey)
	if err != nil {
		return nil, nil, err
	}
	if lk.Type != rk.Type {
		return nil, nil, fmt.Errorf("exec: join key type mismatch %v vs %v", lk.Type, rk.Type)
	}
	return lk, rk, nil
}

// serialHashJoin is the map-based oracle the one join is compared
// against — the parent's serial join core, moved here verbatim: build a
// Go map on the right input, probe with the left in row order, gather.  Build, probe,
// and gather are charged as separate phases so energy reports attribute
// the hash-table bytes, the probe misses, and the output movement
// instead of undercounting joins as one lump.
func serialHashJoin(ctx *Ctx, label string, left, right *Relation, leftKey, rightKey string) (*Relation, error) {
	lk, rk, err := joinKeys(left, right, leftKey, rightKey)
	if err != nil {
		return nil, err
	}

	var lRows, rRows []int32
	switch {
	case lk.Type == colstore.Int64 || (lk.Dict != nil && rk.Dict != nil):
		lkeys, rkeys, translated, w := codeDomainKeys(lk, rk)
		bw := buildWork(right.N, 8)
		bw.Add(w)
		ctx.Charge(label+" [build]", right.N, bw)
		ht := make(map[int64][]int32, len(rkeys))
		for i, k := range rkeys {
			if translated && k == noCode {
				continue // untranslatable build value: matches nothing
			}
			ht[k] = append(ht[k], int32(i))
		}
		for i, k := range lkeys {
			for _, r := range ht[k] {
				lRows = append(lRows, int32(i))
				rRows = append(rRows, r)
			}
		}
		ctx.Charge(label+" [probe]", len(lRows), probeWork(left.N, len(lRows), 8))
	case lk.Type == colstore.String:
		// Raw-string path (a mixed dict/plain pair lands here too): both
		// sides widen to strings, so both sides' key touches are priced
		// at the materialized string width, whatever form they arrived in.
		ls, rs := stringKeys(lk, rk)
		ctx.Charge(label+" [build]", right.N, buildWork(right.N, stringKeyWidth(rs)))
		ht := make(map[string][]int32, right.N)
		for i := 0; i < right.N; i++ {
			ht[rs[i]] = append(ht[rs[i]], int32(i))
		}
		for i := 0; i < left.N; i++ {
			for _, r := range ht[ls[i]] {
				lRows = append(lRows, int32(i))
				rRows = append(rRows, r)
			}
		}
		ctx.Charge(label+" [probe]", len(lRows), probeWork(left.N, len(lRows), stringKeyWidth(ls)))
	default:
		return nil, fmt.Errorf("exec: cannot join on %v keys", lk.Type)
	}

	out, gw := joinGather(left, right, rightKey, lRows, rRows)
	ctx.Charge(label+" [gather]", out.N, gw)
	return out, nil
}

// stringKeys widens both key columns to plain strings (the raw-path
// join; a mixed dict/plain pair lands here too).
func stringKeys(lk, rk *Col) (ls, rs []string) {
	lc, rc := lk.Materialized(), rk.Materialized()
	return lc.S, rc.S
}

// codeDomainKeys returns both key columns as int64 slices sharing one
// equality domain, plus the work of establishing it.  Integer keys pass
// through; dictionary-coded string keys stay as codes, with the
// build-side codes translated through the probe-side dictionary once
// per distinct build value (the PR 3 value→code rewrite, applied to
// joins) — equal strings then compare as equal 8-byte codes and the
// join never touches string bytes row-wise.  translated reports whether
// build keys went through a dictionary translation, i.e. whether the
// noCode sentinel is meaningful in rkeys.
func codeDomainKeys(lk, rk *Col) (lkeys, rkeys []int64, translated bool, w energy.Counters) {
	if lk.Type == colstore.Int64 {
		return lk.I, rk.I, false, energy.Counters{}
	}
	if sameDict(lk.Dict, rk.Dict) {
		return lk.I, rk.I, false, energy.Counters{}
	}
	rkeys, w = translateBuildCodes(lk.Dict, rk)
	return lk.I, rkeys, true, w
}

// buildWork prices inserting n build tuples of keyBytes-wide keys into a
// hash table: the key stream in, the table bytes written (slot + row id
// + chain link), and one latency-bound miss per insert.
func buildWork(n int, keyBytes float64) energy.Counters {
	return energy.Counters{
		TuplesIn:         uint64(n),
		BytesReadDRAM:    uint64(float64(n) * keyBytes),
		BytesWrittenDRAM: uint64(n) * 16,
		CacheMisses:      uint64(n),
		Instructions:     uint64(n) * 12,
	}
}

// probeWork prices probing n tuples yielding matches output pairs: the
// key stream in and one miss per probe — charged whether or not the
// probe finds a match, so selective joins stop looking free.
func probeWork(n, matches int, keyBytes float64) energy.Counters {
	return energy.Counters{
		TuplesIn:         uint64(n),
		TuplesOut:        uint64(matches),
		BytesReadDRAM:    uint64(float64(n) * keyBytes),
		BytesWrittenDRAM: uint64(matches) * 8, // the (left, right) row-id pairs
		CacheMisses:      uint64(n),
		Instructions:     uint64(n)*8 + uint64(matches)*4,
	}
}

// joinGather materializes the join output from the matched row pairs
// and prices the movement: every output value is read from its input
// relation and written to the result, with strings costing their bytes.
// The right join key never reaches the output (it is value-identical to
// the left key), so it is pruned before the gather rather than copied
// and dropped.  Dictionary-coded columns pass through as codes
// (materialized later by the Materialize operator the planner places
// above the join tree).  Output rows are not charged as TuplesOut here
// — the probe phase already reported them; gather moves bytes, it does
// not produce tuples.
func joinGather(left, right *Relation, rightKey string, lRows, rRows []int32) (*Relation, energy.Counters) {
	pruned := &Relation{N: right.N}
	for _, c := range right.Cols {
		if c.Name != rightKey {
			pruned.Cols = append(pruned.Cols, c)
		}
	}
	lOut := left.gather(lRows)
	rOut := pruned.gather(rRows)
	out := mergeJoinColumns(lOut, rOut, rightKey)
	moved := lOut.Bytes() + rOut.Bytes()
	ncols := len(out.Cols)
	w := energy.Counters{
		BytesReadDRAM:    moved,
		BytesWrittenDRAM: moved,
		CacheMisses:      uint64(out.N*ncols) / 4,
		Instructions:     uint64(out.N*ncols) * 2,
	}
	return out, w
}
