package vec

// Scalar reference scans over unpacked []int64 columns.  These are the
// baselines of experiment E7: the branching scan models a traditional
// tuple-at-a-time selection whose cost depends on branch prediction
// (Ross, "Selection conditions in main memory"); the predicated scan is
// branch-free but still one comparison per tuple; the packed scan in
// packed.go is the word-parallel contender.  The predicated scan is also
// the storage layer's kernel for raw BIGINT segments and DOUBLE columns.

// ScanBranching evaluates `v op c` with a data-dependent branch per tuple
// and sets matching bits in out.
//
//lint:allow reach: reference oracle of the vec and xpu scan tests and E7's gated branching arm
func ScanBranching(values []int64, op CmpOp, c int64, out *Bitvec) {
	if out.Len() != len(values) {
		panic("vec: result bit vector length mismatch")
	}
	switch op {
	case LT:
		for i, v := range values {
			if v < c {
				out.Set(i)
			}
		}
	case LE:
		for i, v := range values {
			if v <= c {
				out.Set(i)
			}
		}
	case GT:
		for i, v := range values {
			if v > c {
				out.Set(i)
			}
		}
	case GE:
		for i, v := range values {
			if v >= c {
				out.Set(i)
			}
		}
	case EQ:
		for i, v := range values {
			if v == c {
				out.Set(i)
			}
		}
	case NE:
		for i, v := range values {
			if v != c {
				out.Set(i)
			}
		}
	}
}

// ScanPredicated evaluates `v op c` without data-dependent branches: the
// comparison result is converted to a bit and OR-ed into the output word,
// so the loop's control flow is independent of the data.  It is the
// whole-vector case of ScanPredicatedAt.
func ScanPredicated[T int64 | float64](values []T, op CmpOp, c T, out *Bitvec) {
	if out.Len() != len(values) {
		panic("vec: result bit vector length mismatch")
	}
	ScanPredicatedAt(values, op, c, out, 0)
}

// ScanPredicatedAt is the one raw-value kernel, for BIGINT and DOUBLE
// columns alike: it sets bit off+i of out for every values[i] op c and
// changes no other bit.  A NaN compares false under every operator but
// NE, as Go's (and IEEE 754's) comparisons define it.
func ScanPredicatedAt[T int64 | float64](values []T, op CmpOp, c T, out *Bitvec, off int) {
	if off < 0 || off+len(values) > out.Len() {
		panic("vec: result window out of range")
	}
	words := out.words
	switch op {
	case LT:
		for i, v := range values {
			j := uint(off + i)
			words[j>>6] |= b2u(v < c) << (j & 63)
		}
	case LE:
		for i, v := range values {
			j := uint(off + i)
			words[j>>6] |= b2u(v <= c) << (j & 63)
		}
	case GT:
		for i, v := range values {
			j := uint(off + i)
			words[j>>6] |= b2u(v > c) << (j & 63)
		}
	case GE:
		for i, v := range values {
			j := uint(off + i)
			words[j>>6] |= b2u(v >= c) << (j & 63)
		}
	case EQ:
		for i, v := range values {
			j := uint(off + i)
			words[j>>6] |= b2u(v == c) << (j & 63)
		}
	case NE:
		for i, v := range values {
			j := uint(off + i)
			words[j>>6] |= b2u(v != c) << (j & 63)
		}
	}
}

// b2u converts a bool to 0/1 without a branch in the generated code.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
