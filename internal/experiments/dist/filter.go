package dist

import (
	"strings"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vec"
)

// Filter applies conjunctive predicates to a relation row at a time: the
// coordinator's filter under the data-shipping strategies, which hold only
// the shipped arrays and no column store to push the predicates into.
type Filter struct {
	Child exec.Node
	Preds []expr.Pred
}

// Label implements exec.Node.
func (f *Filter) Label() string {
	ps := make([]string, len(f.Preds))
	for i, p := range f.Preds {
		ps[i] = p.String()
	}
	return "Filter(" + strings.Join(ps, " AND ") + ")"
}

// Kids implements exec.Node.
func (f *Filter) Kids() []exec.Node { return []exec.Node{f.Child} }

// Run implements exec.Node.
func (f *Filter) Run(ctx *exec.Ctx) (*exec.Relation, error) {
	in, err := f.Child.Run(ctx)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, 0, in.N)
	var w energy.Counters
	for i := 0; i < in.N; i++ {
		ok := true
		for _, p := range f.Preds {
			c, err := in.Col(p.Col)
			if err != nil {
				return nil, err
			}
			switch c.Type {
			case colstore.Int64:
				ok = vec.CmpInt64(p.Op, c.I[i], p.Val.I)
			case colstore.Float64:
				ok = cmpOrdered(p.Op, c.F[i], p.Val.F)
			default:
				ok = cmpOrdered(p.Op, c.Str(i), p.Val.S)
			}
			if !ok {
				break
			}
		}
		if ok {
			rows = append(rows, int32(i))
		}
	}
	w.TuplesIn = uint64(in.N)
	w.TuplesOut = uint64(len(rows))
	w.Instructions = uint64(in.N) * uint64(3*len(f.Preds)+2)
	w.BytesReadDRAM = uint64(in.N) * 8 * uint64(len(f.Preds))
	ctx.Charge(f.Label(), len(rows), w)
	return in.Gather(rows), nil
}

// cmpOrdered evaluates `a op b` for a DOUBLE or VARCHAR value.
func cmpOrdered[T float64 | string](op vec.CmpOp, a, b T) bool {
	switch op {
	case vec.LT:
		return a < b
	case vec.LE:
		return a <= b
	case vec.GT:
		return a > b
	case vec.GE:
		return a >= b
	case vec.EQ:
		return a == b
	case vec.NE:
		return a != b
	}
	return false
}
