package vec

// Accessors only the tests read: the served kernels work on words and
// windows, never on one bit or one code at a time.

// Get reports bit i.
func (b *Bitvec) Get(i int) bool { return b.words[i>>6]>>(uint(i)&63)&1 == 1 }

// Not complements b in place.
func (b *Bitvec) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.maskTail()
}

// Clone returns a copy of b.
func (b *Bitvec) Clone() *Bitvec {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitvec{n: b.n, words: w}
}

// Len returns the number of codes.
func (p *Packed) Len() int { return p.n }

// CodesPerWord returns how many codes share one machine word.
func (p *Packed) CodesPerWord() int { return p.perWord }

// ScanBetween sets bits where lo <= code <= hi (inclusive band predicate)
// — the whole-vector band, streaming the column once.
func (p *Packed) ScanBetween(lo, hi uint64, out *Bitvec) {
	p.checkLen(out)
	p.scanBand(lo, hi, false, 0, p.n, out, 0)
}
