package exec

import "fmt"

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
