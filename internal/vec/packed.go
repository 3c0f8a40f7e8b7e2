package vec

import "fmt"

// Packed is a column of non-negative k-bit codes stored in the horizontal
// BitWeaving layout: each 64-bit word holds ⌊64/(k+1)⌋ codes in (k+1)-bit
// fields whose most significant (delimiter) bit is zero.  The delimiter
// bit absorbs borrows during SWAR arithmetic so all codes in a word are
// compared simultaneously.
type Packed struct {
	width    int // code width k, 1..63 (field is k+1 bits)
	perWord  int // codes per word
	n        int
	words    []uint64
	hMask    uint64 // delimiter bit of every field
	lMask    uint64 // LSB of every field
	maxValue uint64 // 2^k - 1
}

// NewPacked packs values (each < 2^width) into the horizontal layout.
func NewPacked(values []uint64, width int) *Packed {
	if width < 1 || width > 63 {
		panic(fmt.Sprintf("vec: packed width %d out of range [1,63]", width))
	}
	p := &Packed{width: width, perWord: 64 / (width + 1), n: len(values)}
	p.maxValue = (uint64(1) << width) - 1
	field := width + 1
	for i := 0; i < p.perWord; i++ {
		p.hMask |= uint64(1) << (uint(i*field) + uint(width))
		p.lMask |= uint64(1) << uint(i*field)
	}
	p.words = make([]uint64, (len(values)+p.perWord-1)/p.perWord)
	for i, v := range values {
		if v > p.maxValue {
			panic(fmt.Sprintf("vec: value %d exceeds %d-bit code", v, width))
		}
		w, slot := i/p.perWord, i%p.perWord
		p.words[w] |= v << uint(slot*field)
	}
	return p
}

// Len returns the number of codes.
func (p *Packed) Len() int { return p.n }

// Width returns the code width in bits.
func (p *Packed) Width() int { return p.width }

// CodesPerWord returns how many codes share one machine word.
func (p *Packed) CodesPerWord() int { return p.perWord }

// WordCount returns the number of underlying 64-bit words (the memory
// footprint the scan streams through).
func (p *Packed) WordCount() int { return len(p.words) }

// Get extracts code i (point access; scans never use this).
func (p *Packed) Get(i int) uint64 {
	w, slot := i/p.perWord, i%p.perWord
	return p.words[w] >> uint(slot*(p.width+1)) & p.maxValue
}

// Unpack decodes codes [lo, hi) into out (length hi-lo) — the bulk
// counterpart of Get: each word is loaded once and shifted through, with
// no per-code division.
func (p *Packed) Unpack(lo, hi int, out []int64) {
	if lo >= hi {
		return
	}
	field := uint(p.width + 1)
	w, slot := lo/p.perWord, lo%p.perWord
	word := p.words[w] >> (uint(slot) * field)
	for i := range out[:hi-lo] {
		out[i] = int64(word & p.maxValue)
		if slot++; slot < p.perWord {
			word >>= field
		} else if slot, w = 0, w+1; w < len(p.words) {
			word = p.words[w]
		}
	}
}

// broadcast replicates constant c into every field's low width bits.
func (p *Packed) broadcast(c uint64) uint64 {
	var out uint64
	field := p.width + 1
	for i := 0; i < p.perWord; i++ {
		out |= c << uint(i*field)
	}
	return out
}

// scanWords streams the packed words through f (which returns the
// delimiter-bit mask for one word) and compacts the delimiter bits into
// out without per-code branches: each word's perWord result bits are
// gathered into a small mask and OR-ed into the output in two word
// operations.
func (p *Packed) scanWords(out *Bitvec, f func(w uint64) uint64) {
	field := uint(p.width + 1)
	outWords := out.words
	bit := 0
	for _, w := range p.words {
		d := f(w) >> uint(p.width) // delimiter of slot k now at bit k*field
		var m uint64
		for slot := uint(0); slot < uint(p.perWord); slot++ {
			m |= d >> (slot * field) & 1 << slot
		}
		wi, off := bit>>6, uint(bit)&63
		outWords[wi] |= m << off
		if spill := off + uint(p.perWord); spill > 64 && wi+1 < len(outWords) {
			outWords[wi+1] |= m >> (64 - off)
		}
		bit += p.perWord
	}
	// The last packed word may carry zero-filled tail slots whose
	// delimiter bits matched; they land beyond Len and are cleared here.
	out.maskTail()
}

// CmpOp is a comparison predicate operator.
type CmpOp int

// The supported comparison operators.
const (
	LT CmpOp = iota // value <  constant
	LE              // value <= constant
	GT              // value >  constant
	GE              // value >= constant
	EQ              // value == constant
	NE              // value != constant
)

// CmpInt64 evaluates `a op b` scalar-wise — the one shared evaluator
// behind point verification (exec) and run-at-a-time kernels (colstore),
// so a new operator cannot silently diverge between them.
func CmpInt64(op CmpOp, a, b int64) bool {
	switch op {
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	case EQ:
		return a == b
	case NE:
		return a != b
	}
	return false
}

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	case NE:
		return "<>"
	}
	return "?"
}

// Scan evaluates `code op c` over all codes with word-parallel SWAR
// arithmetic and sets the matching bits in out (which must have length
// Len).  The constant is clamped to the code domain, so impossible
// predicates (e.g. < 0) yield empty or full results as appropriate.
func (p *Packed) Scan(op CmpOp, c uint64, out *Bitvec) {
	if out.Len() != p.n {
		panic("vec: result bit vector length mismatch")
	}
	switch op {
	case LE:
		if c >= p.maxValue {
			out.SetAll()
			return
		}
		p.scanLE(c, out)
	case LT:
		if c == 0 {
			return
		}
		if c > p.maxValue {
			out.SetAll()
			return
		}
		p.scanLE(c-1, out)
	case GE:
		if c == 0 {
			out.SetAll()
			return
		}
		if c > p.maxValue {
			return
		}
		p.scanGE(c, out)
	case GT:
		if c >= p.maxValue {
			return
		}
		p.scanGE(c+1, out)
	case EQ:
		if c > p.maxValue {
			return
		}
		p.scanEQ(c, out)
	case NE:
		if c > p.maxValue {
			out.SetAll()
			return
		}
		p.scanEQ(c, out)
		out.Not()
	default:
		panic("vec: unknown comparison op")
	}
}

// scanLE sets bits where code <= c.  Per field: delimiter((c|H) - X) is 1
// iff X <= c; the delimiter bit of X is 0, so borrows never cross fields.
func (p *Packed) scanLE(c uint64, out *Bitvec) {
	cb := p.broadcast(c) | p.hMask
	h := p.hMask
	p.scanWords(out, func(w uint64) uint64 { return (cb - w) & h })
}

// scanGE sets bits where code >= c: delimiter((X|H) - c) is 1 iff X >= c.
func (p *Packed) scanGE(c uint64, out *Bitvec) {
	cb := p.broadcast(c)
	h := p.hMask
	p.scanWords(out, func(w uint64) uint64 { return ((w | h) - cb) & h })
}

// scanEQ sets bits where code == c: z = X XOR c is zero exactly in equal
// fields; ((z|H) - L) clears the delimiter only for zero fields.
func (p *Packed) scanEQ(c uint64, out *Bitvec) {
	cb := p.broadcast(c)
	h, l := p.hMask, p.lMask
	p.scanWords(out, func(w uint64) uint64 {
		z := w ^ cb
		return ^((z | h) - l) & h
	})
}

// ScanBetween sets bits where lo <= code <= hi (inclusive band predicate),
// fused so the column is streamed once.
func (p *Packed) ScanBetween(lo, hi uint64, out *Bitvec) {
	if out.Len() != p.n {
		panic("vec: result bit vector length mismatch")
	}
	if hi > p.maxValue {
		hi = p.maxValue
	}
	if lo > hi {
		return
	}
	lob := p.broadcast(lo)
	hib := p.broadcast(hi) | p.hMask
	h := p.hMask
	p.scanWords(out, func(w uint64) uint64 {
		ge := ((w | h) - lob) & h
		le := (hib - w) & h
		return ge & le
	})
}
