package dist

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/exec"
	"repro/internal/experiments/codec"
)

// received adapts a relation the coordinator holds — the payload a node
// sent over the link, or the stacked partials — as a plan source for the
// coordinator-side operators.
type received struct {
	label string
	rel   *exec.Relation
}

// Label implements exec.Node.
func (r *received) Label() string { return r.label }

// Kids implements exec.Node.
func (r *received) Kids() []exec.Node { return nil }

// Run implements exec.Node.
func (r *received) Run(*exec.Ctx) (*exec.Relation, error) { return r.rel, nil }

// WireBytes prices the uncompressed column-wise serialization of one
// column: 8 bytes per numeric value, and every row's string length-
// prefixed — the values the rows reference, whatever dictionary they sit
// in.  Every shipping strategy prices its raw columns by this one
// convention, so wire accounting stays comparable across them.
func WireBytes(c *exec.Col) uint64 {
	if c.Type != colstore.String {
		return uint64(c.Len()) * 8
	}
	var b uint64
	for i := range c.I {
		b += uint64(len(c.Str(i))) + 2
	}
	return b
}

// wireBytesRaw prices the uncompressed column-wise serialization of a
// relation.
func wireBytesRaw(r *exec.Relation) uint64 {
	var wire uint64
	for i := range r.Cols {
		wire += WireBytes(&r.Cols[i])
	}
	return wire
}

// encode serializes a node's relation for the wire under the strategy and
// returns the relation the coordinator receives (round-tripped through the
// codecs for ShipCompressed, so codec bugs cannot hide), the wire bytes,
// and the CPU instructions spent on both ends of the codec.
func encode(r *exec.Relation, s Strategy) (*exec.Relation, uint64, uint64, error) {
	if s == ShipRaw {
		return r, wireBytesRaw(r), 0, nil
	}
	out := &exec.Relation{N: r.N, Cols: make([]exec.Col, len(r.Cols))}
	var wire, instr uint64
	for i := range r.Cols {
		c := &r.Cols[i]
		switch c.Type {
		case colstore.Int64:
			cd := codec.For(compress.Choose(compress.Analyze(c.I).Stats))
			payload := cd.Compress(c.I)
			vals, err := cd.Decompress(payload)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("dist: codec %s on %q: %w", cd.Name(), c.Name, err)
			}
			wire += uint64(len(payload))
			instr += uint64(float64(len(c.I)) * cd.CostFactor() * 2)
			out.Cols[i] = exec.Col{Name: c.Name, Type: c.Type, I: vals}
		case colstore.Float64:
			// Doubles ship raw: the integer codecs have nothing to grab
			// onto in random mantissa bits.
			wire += WireBytes(c)
			out.Cols[i] = exec.Col{Name: c.Name, Type: c.Type, F: append([]float64(nil), c.F...)}
		default:
			vals, w, n, err := shipStringsCoded(c)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("dist: column %q: %w", c.Name, err)
			}
			wire += w
			instr += n
			out.Cols[i] = exec.StringCol(c.Name, vals)
		}
	}
	return out, wire, instr, nil
}

// shipStringsCoded ships a VARCHAR column dictionary-coded: the distinct
// values its rows reference once (length-prefixed) plus the per-row codes
// through the advisor-chosen integer codec.  The wire dictionary is built
// from the rows' values, whatever dictionary they sit in.
func shipStringsCoded(c *exec.Col) ([]string, uint64, uint64, error) {
	vs := make([]string, c.Len())
	for i := range vs {
		vs[i] = c.Str(i)
	}
	dict, codes := codec.BuildDictionary(vs)
	var wire uint64
	for c := int64(0); c < int64(dict.Size()); c++ {
		wire += uint64(len(dict.Value(c))) + 2
	}
	cd := codec.For(compress.Choose(compress.Analyze(codes).Stats))
	payload := cd.Compress(codes)
	back, err := cd.Decompress(payload)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("codec %s: %w", cd.Name(), err)
	}
	wire += uint64(len(payload))
	// Codec work on the codes plus one dictionary probe per value.
	instr := uint64(float64(len(codes))*cd.CostFactor()*2) + uint64(len(vs))*2
	out := make([]string, len(back))
	for i, code := range back {
		if code < 0 || code >= int64(dict.Size()) {
			return nil, 0, 0, fmt.Errorf("code %d outside dictionary of %d", code, dict.Size())
		}
		out[i] = dict.Value(code)
	}
	return out, wire, instr, nil
}

// ship moves wire bytes over the cluster's ingress link, charging the
// serialization DRAM traffic (write on the sender, read on the receiver)
// and any codec instructions alongside the link counters.
func (c *Cluster) ship(ctx *exec.Ctx, from int, raw, wire, instr uint64) {
	d, w := c.link.Ship(wire)
	w.Instructions += instr
	w.BytesReadDRAM += raw
	w.BytesWrittenDRAM += raw
	ctx.SimTime += d
	ctx.Charge(fmt.Sprintf("ship(n%d raw=%d wire=%d)", from, raw, wire), 0, w)
}
