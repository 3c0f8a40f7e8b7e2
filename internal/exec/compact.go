package exec

import (
	"fmt"

	"repro/internal/colstore"
)

// Compact is the delta merge lowered to a plan operator — "merge as a
// query" (the HANA-style merge under the paper's energy regime).  It
// consumes the delta of every shard of the table and re-seals it into
// the compressed main, charging each shard's priced compaction work into
// the query's meter like any other operator.  Running it through the
// ordinary admission path is the point: the scheduler prices it with the
// same P-state model as user queries and races it to idle when the queue
// is empty or defers it under load.
//
// Horizon supplies the oldest live snapshot timestamp at execution time
// (not plan time — queries admitted between planning and execution must
// keep their consistent view); nil means no reader is in flight.
type Compact struct {
	Table   *colstore.ShardedTable
	Horizon func() int64
}

// Label implements Node.
func (c *Compact) Label() string {
	return fmt.Sprintf("Compact(%s, delta=%d)", c.Table.Name, c.Table.DeltaRows())
}

// Kids implements Node.
func (c *Compact) Kids() []Node { return nil }

// Run implements Node.  The result is a one-row summary relation (totals
// over the shards), so a merge ticket flows through the serving stack
// like any query result.
func (c *Compact) Run(ctx *Ctx) (*Relation, error) {
	var horizon int64
	if c.Horizon != nil {
		horizon = c.Horizon()
	}
	var sum colstore.MergeStats
	for _, sh := range c.Table.Shards() {
		st, err := sh.Merge(horizon)
		if err != nil {
			return nil, err
		}
		ctx.Charge("merge:"+sh.Name, st.RowsOut, st.Work)
		sum.DeltaRowsIn += st.DeltaRowsIn
		sum.RowsOut += st.RowsOut
		sum.Dropped += st.Dropped
		sum.TombstonesKept += st.TombstonesKept
		sum.BytesBefore += st.BytesBefore
		sum.BytesAfter += st.BytesAfter
		sum.Rebuilt = sum.Rebuilt || st.Rebuilt
	}
	rebuilt := int64(0)
	if sum.Rebuilt {
		rebuilt = 1
	}
	return &Relation{N: 1, Cols: []Col{
		StringCol("table", []string{c.Table.Name}),
		{Name: "delta_rows_in", Type: colstore.Int64, I: []int64{int64(sum.DeltaRowsIn)}},
		{Name: "rows_out", Type: colstore.Int64, I: []int64{int64(sum.RowsOut)}},
		{Name: "dropped", Type: colstore.Int64, I: []int64{int64(sum.Dropped)}},
		{Name: "tombstones_kept", Type: colstore.Int64, I: []int64{int64(sum.TombstonesKept)}},
		{Name: "bytes_before", Type: colstore.Int64, I: []int64{int64(sum.BytesBefore)}},
		{Name: "bytes_after", Type: colstore.Int64, I: []int64{int64(sum.BytesAfter)}},
		{Name: "rebuilt", Type: colstore.Int64, I: []int64{rebuilt}},
	}}, nil
}
