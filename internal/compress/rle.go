package compress

// Run is one (value, length) pair of a run-length encoding.
type Run struct {
	Value  int64
	Length uint32
}

// EncodeRuns converts values into runs.
func EncodeRuns(values []int64) []Run {
	if len(values) == 0 {
		return nil
	}
	runs := make([]Run, 0, 16)
	cur := Run{Value: values[0], Length: 1}
	for _, v := range values[1:] {
		if v == cur.Value && cur.Length < ^uint32(0) {
			cur.Length++
			continue
		}
		runs = append(runs, cur)
		cur = Run{Value: v, Length: 1}
	}
	return append(runs, cur)
}
