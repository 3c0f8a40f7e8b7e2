package workload

// Split derives an independent generator from r, usable in another
// goroutine.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}
