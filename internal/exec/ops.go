package exec

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/num"
)

// Project keeps only the named columns, in order.
type Project struct {
	Child Node
	Names []string
}

// Label implements Node.
func (p *Project) Label() string { return "Project(" + strings.Join(p.Names, ", ") + ")" }

// Kids implements Node.
func (p *Project) Kids() []Node { return []Node{p.Child} }

// Run implements Node.
func (p *Project) Run(ctx *Ctx) (*Relation, error) {
	in, err := p.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &Relation{N: in.N}
	for _, name := range p.Names {
		c, err := in.Col(name)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, *c)
	}
	ctx.Charge(p.Label(), in.N, energy.Counters{Instructions: uint64(len(p.Names)) * 4})
	return out, nil
}

// Sort orders rows by the given keys.
type Sort struct {
	Child Node
	Keys  []expr.SortKey
}

// Label implements Node.
func (s *Sort) Label() string {
	ks := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		ks[i] = k.String()
	}
	return "Sort(" + strings.Join(ks, ", ") + ")"
}

// Kids implements Node.
func (s *Sort) Kids() []Node { return []Node{s.Child} }

// Run implements Node.
func (s *Sort) Run(ctx *Ctx) (*Relation, error) {
	in, err := s.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	keyCols := make([]*Col, len(s.Keys))
	for i, k := range s.Keys {
		c, err := in.Col(k.Col)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	perm := make([]int32, in.N)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := perm[a], perm[b]
		for i, k := range s.Keys {
			c := keyCols[i]
			// A DOUBLE sorts in MIN/MAX's total order (num.MinMaxKey:
			// −0 < +0, NaN highest), so distinct keys never tie and
			// the output does not depend on the input order.
			var d int
			switch c.Type {
			case colstore.Int64:
				d = cmp.Compare(c.I[ra], c.I[rb])
			case colstore.Float64:
				d = cmp.Compare(num.MinMaxKey(c.F[ra]), num.MinMaxKey(c.F[rb]))
			default:
				d = strings.Compare(c.Str(int(ra)), c.Str(int(rb)))
			}
			if d != 0 {
				if k.Desc {
					return d > 0
				}
				return d < 0
			}
		}
		return false
	})
	// n log n comparisons, each touching the key columns.
	logN := 1
	for v := in.N; v > 1; v >>= 1 {
		logN++
	}
	w := energy.Counters{
		TuplesIn:     uint64(in.N),
		TuplesOut:    uint64(in.N),
		Instructions: uint64(in.N) * uint64(logN) * 8,
		CacheMisses:  uint64(in.N) * uint64(logN) / 8,
	}
	ctx.Charge(s.Label(), in.N, w)
	return in.Gather(perm), nil
}

// Limit keeps the first N rows.
type Limit struct {
	Child Node
	N     int
}

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Kids implements Node.
func (l *Limit) Kids() []Node { return []Node{l.Child} }

// Run implements Node.
func (l *Limit) Run(ctx *Ctx) (*Relation, error) {
	in, err := l.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	if l.N >= in.N {
		return in, nil
	}
	rows := make([]int32, l.N)
	for i := range rows {
		rows[i] = int32(i)
	}
	ctx.Charge(l.Label(), l.N, energy.Counters{TuplesIn: uint64(in.N), TuplesOut: uint64(l.N)})
	return in.Gather(rows), nil
}
