package exec

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/energy"
)

// mapJoin is the oracle join node: serialHashJoin over its two inputs.
// It shares nothing with the production join but mergeJoinColumns (the
// output naming rule): string keys join by their decoded values, never by
// codes or a dictionary translation.
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
// bytes for integers, the decoded string bytes plus header for strings.
// stringKeyWidth averages the width over the keys a string join hashes.
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
	switch lk.Type {
	case colstore.Int64:
		ctx.Charge(label+" [build]", right.N, buildWork(right.N, 8))
		lRows, rRows = hashPairs(lk.I, rk.I)
		ctx.Charge(label+" [probe]", len(lRows), probeWork(left.N, len(lRows), 8))
	case colstore.String:
		ls, rs := decoded(lk), decoded(rk)
		ctx.Charge(label+" [build]", right.N, buildWork(right.N, stringKeyWidth(rs)))
		lRows, rRows = hashPairs(ls, rs)
		ctx.Charge(label+" [probe]", len(lRows), probeWork(left.N, len(lRows), stringKeyWidth(ls)))
	default:
		return nil, fmt.Errorf("exec: cannot join on %v keys", lk.Type)
	}

	out, gw := joinGather(left, right, rightKey, lRows, rRows)
	ctx.Charge(label+" [gather]", out.N, gw)
	return out, nil
}

// hashPairs builds a Go map over the build keys and probes it with the
// probe keys in row order: the (probe row, build row) pairs, build rows
// ascending within a key.
func hashPairs[K comparable](lkeys, rkeys []K) (lRows, rRows []int32) {
	ht := make(map[K][]int32, len(rkeys))
	for i, k := range rkeys {
		ht[k] = append(ht[k], int32(i))
	}
	for i, k := range lkeys {
		for _, r := range ht[k] {
			lRows = append(lRows, int32(i))
			rRows = append(rRows, r)
		}
	}
	return lRows, rRows
}

// decoded returns a string column's values.
func decoded(c *Col) []string {
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.Str(i)
	}
	return out
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
// relation and written to the result.  The right join key never reaches
// the output (it is value-identical to the left key), so it is pruned
// before the gather rather than copied and dropped.  Output rows are not
// charged as TuplesOut here — the probe phase already reported them;
// gather moves bytes, it does not produce tuples.
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
