package exec

import (
	"math/bits"

	"repro/internal/energy"
)

// The build half of the join (join.go): radix partitioning and the flat
// probe tables.
//
//	partition:  the build side is cut into 2^k radix partitions
//	            morsel-wise on the worker pool — each morsel scatters
//	            its (key, row) pairs into a partition-ordered chunk —
//	            and the coordinator stitches the chunks per partition
//	            in morsel order.  A build side that already fits one
//	            partition's cache target (k = 0) skips the pass.
//	build:      every partition gets its own compact open-addressing
//	            table (flat int32/int64 arrays, no map), built in
//	            parallel across partitions; duplicate keys chain in
//	            ascending build-row order.
//
// A probe row's radix bits then select its partition, whose table is
// small enough to stay cache-resident — the point of partitioning.

// partTargetRows is the build-rows-per-partition target: a partition's
// open-addressing table (two int32 and one int64 array at load factor
// 1/2) stays comfortably inside L2 at this size.
const partTargetRows = 4096

// maxRadixBits caps the partition fan-out; past 2^10 partitions the
// scatter pass thrashes more write streams than caches have ways.
const maxRadixBits = 10

// RadixBits picks the partition fan-out for a build side of n rows: zero
// bits — one table, no scatter pass — while the whole build side fits the
// per-partition cache target.  A pure function of n, so plans charge
// identically at every DOP — and the one answer the planner's estimate
// asks for, rather than mirroring the threshold.
func RadixBits(n int) int {
	k := bits.Len(uint(n / partTargetRows))
	if k > maxRadixBits {
		k = maxRadixBits
	}
	return k
}

// mix64 is the finalizer-style hash shared by the partition and slot
// index: partition = top k bits, slot = low bits, so the two never
// correlate.
func mix64(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// partChunk is one morsel's scatter output: partition p's pairs live at
// keys[off[p]:off[p+1]], in ascending build-row order within the morsel.
//
//lint:hotpath
type partChunk struct {
	off  []int32
	keys []int64
	rows []int32
}

// pairChunk is one probe morsel's matches, in probe-row order.  A shard
// probe source additionally carries each match's probe key in k (codes
// for string keys), so the output key column never touches the key
// segments a second time; a relation source leaves k nil.
//
//lint:hotpath
type pairChunk struct {
	l, r []int32
	k    []int64
}

// joinTable is a compact open-addressing hash table over one partition:
// flat arrays instead of a Go map, one slot per distinct key, duplicate
// rows chained in insertion (= ascending build-row) order.
//
//lint:hotpath
type joinTable struct {
	mask     uint64
	slotKey  []int64
	slotHead []int32 // first entry of the key's chain; -1 = empty slot
	slotTail []int32
	rows     []int32 // entry payload: build-side row id
	next     []int32 // entry chain link; -1 = end
}

func newJoinTable(n int) *joinTable {
	size := 4
	for size < 2*n {
		size <<= 1
	}
	t := &joinTable{
		mask:     uint64(size - 1),
		slotKey:  make([]int64, size),
		slotHead: make([]int32, size),
		slotTail: make([]int32, size),
		rows:     make([]int32, 0, n),
		next:     make([]int32, 0, n),
	}
	for i := range t.slotHead {
		t.slotHead[i] = -1
	}
	return t
}

// insert adds (key, row), returning the linear-probe steps taken (for
// the instruction counters — a function of the data alone).
func (t *joinTable) insert(key int64, row int32) int {
	steps := 0
	i := mix64(uint64(key)) & t.mask
	for {
		steps++
		if t.slotHead[i] == -1 {
			e := int32(len(t.rows))
			t.rows = append(t.rows, row)
			t.next = append(t.next, -1)
			t.slotKey[i] = key
			t.slotHead[i] = e
			t.slotTail[i] = e
			return steps
		}
		if t.slotKey[i] == key {
			e := int32(len(t.rows))
			t.rows = append(t.rows, row)
			t.next = append(t.next, -1)
			t.next[t.slotTail[i]] = e
			t.slotTail[i] = e
			return steps
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the first entry of key's chain (-1 if absent) plus the
// probe steps taken.  h is mix64(key): the caller already hashed the key
// to pick this partition, and the slot index reuses its low bits.
func (t *joinTable) lookup(key int64, h uint64) (int32, int) {
	steps := 0
	i := h & t.mask
	for {
		steps++
		if t.slotHead[i] == -1 {
			return -1, steps
		}
		if t.slotKey[i] == key {
			return t.slotHead[i], steps
		}
		i = (i + 1) & t.mask
	}
}

// buildTables turns the build-side keys into the probe tables, one per
// radix partition (a key's partition is mix64(key) >> shift): the
// partition pass scatters the keys morsel-wise, the build pass fills the
// partitions' tables in parallel, each consuming its chunk slices in
// morsel order.  A build side inside the per-partition cache target
// (RadixBits 0) skips the scatter: its one table fills straight from the
// key stream.
func buildTables(ctx *Ctx, label string, rkeys []int64, translated bool) (tables []*joinTable, shift uint, err error) {
	kbits := RadixBits(len(rkeys))
	shift = 64 - uint(kbits)
	if kbits == 0 {
		t, bw := buildSingle(rkeys, translated)
		ctx.Charge(label+" [build]", len(rkeys), bw)
		return []*joinTable{t}, shift, nil
	}
	nparts := 1 << kbits
	chunks, pw := runMorsels(ctx, len(rkeys), func(m, lo, hi int) (partChunk, energy.Counters) {
		return scatterMorsel(rkeys, translated, lo, hi, nparts, shift)
	})
	if ctx.Canceled() {
		return nil, 0, ErrCanceled
	}
	ctx.Trace(label+" [partition]", len(rkeys), pw)

	tables, bw := runPool(ctx, nparts, func(p int) (*joinTable, energy.Counters) {
		return buildPartition(chunks, p)
	})
	if ctx.Canceled() {
		return nil, 0, ErrCanceled
	}
	ctx.Trace(label+" [build]", len(rkeys), bw)
	return tables, shift, nil
}

// buildSingle builds the one table of an unpartitioned build side from
// the key stream itself — buildPartition without the scattered pairs to
// stream back in.  Untranslatable dictionary codes match nothing and are
// dropped; a side with nothing left has no table.
func buildSingle(keys []int64, translated bool) (*joinTable, energy.Counters) {
	n := uint64(len(keys))
	w := energy.Counters{TuplesIn: n, BytesReadDRAM: n * 8}
	t := newJoinTable(len(keys))
	steps := 0
	for i, k := range keys {
		if translated && k == noCode {
			continue
		}
		steps += t.insert(k, int32(i))
	}
	kept := uint64(len(t.rows))
	if kept == 0 {
		return nil, w
	}
	w.Add(energy.Counters{
		BytesWrittenDRAM: kept * 16,
		CacheMisses:      kept / 2,
		Instructions:     kept*10 + uint64(steps)*2,
	})
	return t, w
}

// scatterMorsel partitions build rows [lo, hi) into a partition-ordered
// chunk.  Untranslatable dictionary codes (noCode) match nothing and
// are dropped here, before any table sees them.
func scatterMorsel(keys []int64, translated bool, lo, hi, nparts int, shift uint) (partChunk, energy.Counters) {
	counts := make([]int32, nparts+1)
	for i := lo; i < hi; i++ {
		if translated && keys[i] == noCode {
			continue
		}
		counts[mix64(uint64(keys[i]))>>shift+1]++
	}
	off := counts
	for p := 1; p <= nparts; p++ {
		off[p] += off[p-1]
	}
	kept := int(off[nparts])
	ck := partChunk{off: off, keys: make([]int64, kept), rows: make([]int32, kept)}
	cursor := make([]int32, nparts)
	copy(cursor, off[:nparts])
	for i := lo; i < hi; i++ {
		if translated && keys[i] == noCode {
			continue
		}
		p := mix64(uint64(keys[i])) >> shift
		c := cursor[p]
		ck.keys[c] = keys[i]
		ck.rows[c] = int32(i)
		cursor[p] = c + 1
	}
	n := uint64(hi - lo)
	return ck, energy.Counters{
		TuplesIn:         n,
		BytesReadDRAM:    n * 8,  // the key stream
		BytesWrittenDRAM: n * 12, // scattered (key, row) pairs
		CacheMisses:      n / 4,  // bounded write streams, mostly sequential
		Instructions:     n * 6,
	}
}

// buildPartition builds partition p's table from every morsel chunk in
// morsel order, keeping duplicate chains in ascending build-row order.
func buildPartition(chunks []partChunk, p int) (*joinTable, energy.Counters) {
	total := 0
	for _, ck := range chunks {
		total += int(ck.off[p+1] - ck.off[p])
	}
	if total == 0 {
		return nil, energy.Counters{}
	}
	t := newJoinTable(total)
	steps := 0
	for _, ck := range chunks {
		for i := ck.off[p]; i < ck.off[p+1]; i++ {
			steps += t.insert(ck.keys[i], ck.rows[i])
		}
	}
	n := uint64(total)
	return t, energy.Counters{
		BytesReadDRAM:    n * 12, // the partition's (key, row) pairs stream back in
		BytesWrittenDRAM: n * 16, // slot + head/tail + entry writes
		CacheMisses:      n / 2,  // table is cache-resident: cheaper than a map insert
		Instructions:     n*10 + uint64(steps)*2,
	}
}
