package xpu

import "repro/internal/vec"

// Vertical is the bit-sliced (BitWeaving/V-style) column layout: bit j of
// every code lives in bit-plane j, packed 64 codes per word.  Predicates
// are evaluated plane-at-a-time from the most significant bit down,
// maintaining per-row "still equal" and "already less" masks; the loop
// for one word of 64 rows exits early once no row is still undecided.
// Compared to the horizontal Packed layout, Vertical touches only the
// planes a predicate needs, which favors very selective predicates on
// high-order bits.
type Vertical struct {
	width  int
	n      int
	planes [][]uint64 // planes[j][w]: bit j of codes w*64..w*64+63 (j=0 is MSB)
}

// NewVertical slices values (each < 2^width) into bit planes.
func NewVertical(values []uint64, width int) *Vertical {
	if width < 1 || width > 63 {
		panic("xpu: vertical width out of range [1,63]")
	}
	v := &Vertical{width: width, n: len(values)}
	words := (len(values) + 63) / 64
	v.planes = make([][]uint64, width)
	for j := range v.planes {
		v.planes[j] = make([]uint64, words)
	}
	max := uint64(1)<<uint(width) - 1
	for i, val := range values {
		if val > max {
			panic("xpu: value exceeds vertical code width")
		}
		w, bit := i>>6, uint(i)&63
		for j := 0; j < width; j++ {
			// Plane 0 holds the MSB.
			if val>>(uint(width-1-j))&1 == 1 {
				v.planes[j][w] |= 1 << bit
			}
		}
	}
	return v
}

// Len returns the number of codes.
func (v *Vertical) Len() int { return v.n }

// Width returns the code width.
func (v *Vertical) Width() int { return v.width }

// Get reconstructs code i (diagnostics; scans never use this).
func (v *Vertical) Get(i int) uint64 {
	w, bit := i>>6, uint(i)&63
	var out uint64
	for j := 0; j < v.width; j++ {
		out = out<<1 | v.planes[j][w]>>bit&1
	}
	return out
}

// Scan evaluates `code op c` into out (length Len).  The per-word loop
// computes lt/gt/eq masks plane by plane and stops as soon as every row
// in the word is decided.
func (v *Vertical) Scan(op vec.CmpOp, c uint64, out *vec.Bitvec) {
	if out.Len() != v.n {
		panic("xpu: result bit vector length mismatch")
	}
	max := uint64(1)<<uint(v.width) - 1
	// Clamp out-of-domain constants exactly like Packed.Scan.
	switch op {
	case vec.LE:
		if c >= max {
			out.SetAll()
			return
		}
	case vec.LT:
		if c == 0 {
			return
		}
		if c > max {
			out.SetAll()
			return
		}
	case vec.GE:
		if c == 0 {
			out.SetAll()
			return
		}
		if c > max {
			return
		}
	case vec.GT:
		if c >= max {
			return
		}
	case vec.EQ:
		if c > max {
			return
		}
	case vec.NE:
		if c > max {
			out.SetAll()
			return
		}
	}
	words := len(v.planes[0])
	outWords := out.Words()
	for w := 0; w < words; w++ {
		var lt, gt uint64
		eq := ^uint64(0)
		for j := 0; j < v.width; j++ {
			xj := v.planes[j][w]
			var cj uint64
			if c>>(uint(v.width-1-j))&1 == 1 {
				cj = ^uint64(0)
			}
			lt |= eq & ^xj & cj
			gt |= eq & xj & ^cj
			eq &= ^(xj ^ cj)
			if eq == 0 {
				break // every row in this word is decided
			}
		}
		var m uint64
		switch op {
		case vec.LT:
			m = lt
		case vec.LE:
			m = lt | eq
		case vec.GT:
			m = gt
		case vec.GE:
			m = gt | eq
		case vec.EQ:
			m = eq
		case vec.NE:
			m = ^eq
		}
		outWords[w] |= m
	}
	if r := uint(v.n) & 63; r != 0 && len(outWords) > 0 {
		outWords[len(outWords)-1] &= (uint64(1) << r) - 1
	}
}

// PlanesTouched estimates how many bit planes a scan for constant c
// actually reads on average: the early exit stops at the first plane
// where all 64 rows of a word have diverged from c.  Exposed for the
// layout-ablation bench.
func (v *Vertical) PlanesTouched(c uint64) float64 {
	words := len(v.planes[0])
	if words == 0 {
		return 0
	}
	total := 0
	for w := 0; w < words; w++ {
		eq := ^uint64(0)
		j := 0
		for ; j < v.width; j++ {
			xj := v.planes[j][w]
			var cj uint64
			if c>>(uint(v.width-1-j))&1 == 1 {
				cj = ^uint64(0)
			}
			eq &= ^(xj ^ cj)
			if eq == 0 {
				j++
				break
			}
		}
		total += j
	}
	return float64(total) / float64(words)
}
