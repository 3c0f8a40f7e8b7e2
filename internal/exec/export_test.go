package exec

import (
	"fmt"

	"repro/internal/expr"
)

// snapLatest is the snapshot that reads everything committed so far.
const snapLatest int64 = 0

// NewRelation builds a relation from columns, validating equal lengths.
func NewRelation(cols ...Col) (*Relation, error) {
	r := &Relation{Cols: cols}
	for i := range cols {
		n := cols[i].Len()
		if i == 0 {
			r.N = n
		} else if n != r.N {
			return nil, fmt.Errorf("exec: column %q has %d rows, expected %d", cols[i].Name, n, r.N)
		}
	}
	return r, nil
}

// FusedAggEligible reports whether HashAgg{Child: scan, GroupBy, Aggs} is
// scan-fed: whether FusedAggWork prices it.
func FusedAggEligible(scan *Scan, groupBy []string, aggs []expr.AggSpec) bool {
	return (&HashAgg{Child: scan, GroupBy: groupBy, Aggs: aggs}).scanFeed() != nil
}
