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
	// magic gathers the delimiter bits of a word into the top perWord
	// bits of one product where field > perWord; 0 for the narrow widths,
	// which compact in shift-and-mask steps (bandNarrow).
	magic uint64
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
	if field > p.perWord {
		// Slot s's delimiter sits at s*field + width; the term
		// 2^(64-perWord-width-s*(field-1)) moves it to bit 64-perWord+s,
		// so the product's top perWord bits are the slots in order.  Every
		// other (bit, term) pair lands at a distinct position outside that
		// band (field and field-1 are coprime and perWord < field): below
		// it, or past bit 63 — so no carry reaches it.
		for s := 0; s < p.perWord; s++ {
			p.magic |= uint64(1) << uint(64-p.perWord-width-s*(field-1))
		}
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

// Scan evaluates `code op c` over all codes and sets the matching bits in
// out (which must have length Len) — the whole-vector case of ScanWindow.
func (p *Packed) Scan(op CmpOp, c uint64, out *Bitvec) {
	p.checkLen(out)
	p.ScanWindow(op, c, 0, p.n, out, 0)
}

// ScanBetween sets bits where lo <= code <= hi (inclusive band predicate)
// — the whole-vector band, streaming the column once.
func (p *Packed) ScanBetween(lo, hi uint64, out *Bitvec) {
	p.checkLen(out)
	p.scanBand(lo, hi, false, 0, p.n, out, 0)
}

func (p *Packed) checkLen(out *Bitvec) {
	if out.Len() != p.n {
		panic("vec: result bit vector length mismatch")
	}
}

// ScanWindow evaluates `code op c` over codes [lo, hi) and sets bit
// off+i-lo of out for every matching code i; no other bit of out changes.
// Every operator is a band of the code domain or, for NE, its complement.
// The constant is clamped to the domain, so an impossible predicate
// (e.g. < 0) reads no word and one every code satisfies fills the window
// without reading one.
func (p *Packed) ScanWindow(op CmpOp, c uint64, lo, hi int, out *Bitvec, off int) {
	switch op {
	case LT:
		if c > 0 {
			p.scanBand(0, c-1, false, lo, hi, out, off)
		}
	case LE:
		p.scanBand(0, c, false, lo, hi, out, off)
	case GT:
		if c < p.maxValue {
			p.scanBand(c+1, p.maxValue, false, lo, hi, out, off)
		}
	case GE:
		p.scanBand(c, p.maxValue, false, lo, hi, out, off)
	case EQ:
		p.scanBand(c, c, false, lo, hi, out, off)
	case NE:
		p.scanBand(c, c, true, lo, hi, out, off)
	default:
		panic("vec: unknown comparison op")
	}
}

// scanBand is the one packed kernel: it sets bit off+i-lo of out for
// every code i in [lo, hi) with a <= code <= b (outside the band when
// neg).  Per word, with v = word | H (every delimiter set):
//
//	delimiter(v - a·L) is 1 iff code >= a
//	delimiter(v - (b+1)·L) is 1 iff code >= b+1
//
// (the delimiter absorbs each field's borrow, and b+1 <= 2^width), so
// the band's delimiter mask is the first AND NOT the second — a few word
// operations per word and nothing per code.  The mask's delimiters are
// gathered into perWord consecutive bits and appended to an output
// register that is OR-ed into out once per 64 bits.  The codes of a
// partial word at either end of the window are compared one by one.
func (p *Packed) scanBand(a, b uint64, neg bool, lo, hi int, out *Bitvec, off int) {
	b = min(b, p.maxValue)
	if empty, full := a > b, a == 0 && b == p.maxValue; empty || full {
		if empty == neg {
			out.SetRange(off, off+hi-lo)
		}
		return
	}
	per := p.perWord
	w0, w1 := (lo+per-1)/per, hi/per // the whole words inside the window
	if w0 >= w1 {
		p.scanCodes(a, b, neg, lo, hi, out, off)
		return
	}
	p.scanCodes(a, b, neg, lo, w0*per, out, off)
	p.scanCodes(a, b, neg, w1*per, hi, out, off+w1*per-lo)

	ya, yb := a*p.lMask, (b+1)*p.lMask
	var flip uint64
	if neg {
		flip = p.hMask
	}
	pos := off + w0*per - lo
	if p.magic != 0 {
		p.bandWide(p.words[w0:w1], ya, yb, flip, out.words, pos)
	} else {
		p.bandNarrow(p.words[w0:w1], ya, yb, flip, out.words, pos)
	}
}

// bandWide ORs the band mask of whole words into dst from bit pos on, for
// field > perWord: one multiply moves a word's delimiters into the top
// perWord bits of the product, with no branch on the data.  The output
// word is assembled in acc (sh is its next free bit) and stored once per
// 64 bits; a word's bits that overflow acc open the next one.
func (p *Packed) bandWide(words []uint64, ya, yb, flip uint64, dst []uint64, pos int) {
	h, magic, per := p.hMask, p.magic, uint(p.perWord)
	dst, sh := dst[pos>>6:], uint(pos)&63
	var acc uint64
	for _, w := range words {
		v := w | h
		m := (((v-ya)&^(v-yb) ^ flip) & h) * magic >> ((64 - per) & 63)
		acc |= m << (sh & 63)
		if sh += per; sh >= 64 {
			dst[0] |= acc
			dst, sh = dst[1:], sh-64
			acc = m >> ((per - sh) & 63)
		}
	}
	if acc != 0 {
		dst[0] |= acc
	}
}

// bandNarrow is bandWide for field <= perWord, where one multiply's
// partial products would collide.  A word without a match costs a test
// and a branch; a matching word's delimiters, shifted down to bit
// slot*field, are compacted in ⌈log2 perWord⌉ steps: step k moves every
// odd group of 2^k gathered bits down next to its even neighbour (a shift
// by 2^k·(field-1)) and masks off everything else.
func (p *Packed) bandNarrow(words []uint64, ya, yb, flip uint64, dst []uint64, pos int) {
	h, per := p.hMask, uint(p.perWord)
	field, width := uint(p.width+1), uint(p.width)&63
	var shifts [5]uint
	var masks [5]uint64
	steps := 0
	for g := uint(1); g < per; g, steps = 2*g, steps+1 {
		shifts[steps] = g * (field - 1) & 63
		for at := uint(0); at < 64; at += 2 * g * field {
			masks[steps] |= (1<<(2*g) - 1) << at
		}
	}
	dst, sh := dst[pos>>6:], uint(pos)&63
	var acc uint64
	for _, w := range words {
		v := w | h
		var m uint64
		if d := ((v-ya)&^(v-yb) ^ flip) & h; d != 0 {
			m = d >> width
			for k := range steps {
				m = (m | m>>shifts[k]) & masks[k]
			}
		}
		acc |= m << (sh & 63)
		if sh += per; sh >= 64 {
			dst[0] |= acc
			dst, sh = dst[1:], sh-64
			acc = m >> ((per - sh) & 63)
		}
	}
	if acc != 0 {
		dst[0] |= acc
	}
}

// scanCodes compares codes [lo, hi) one by one — the partial words at the
// ends of a window.
func (p *Packed) scanCodes(a, b uint64, neg bool, lo, hi int, out *Bitvec, off int) {
	for i := lo; i < hi; i++ {
		if c := p.Get(i); (a <= c && c <= b) != neg {
			out.Set(off + i - lo)
		}
	}
}
