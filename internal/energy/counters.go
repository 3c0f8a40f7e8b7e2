package energy

// Counters records the work performed by an operator, a transaction, or a
// whole query.  Every field is a plain count so Counters values can be
// added, subtracted, and scaled without loss.  Operators fill counters as
// they run; Model converts them into joules and time.
type Counters struct {
	Instructions uint64 // retired instructions (estimated per operator)
	TuplesIn     uint64 // tuples consumed
	TuplesOut    uint64 // tuples produced

	BytesReadDRAM    uint64 // streaming reads from memory
	BytesWrittenDRAM uint64 // streaming writes to memory
	CacheMisses      uint64 // latency-bound cache-line fetches (random access)
	BranchMisses     uint64 // mispredicted branches

	BytesSentLink uint64 // bytes shipped over the interconnect
	BytesRecvLink uint64
	Messages      uint64 // discrete messages (per-message overhead)

	BytesReadSSD    uint64
	BytesWrittenSSD uint64
	BytesReadHDD    uint64
	BytesWrittenHDD uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Instructions += o.Instructions
	c.TuplesIn += o.TuplesIn
	c.TuplesOut += o.TuplesOut
	c.BytesReadDRAM += o.BytesReadDRAM
	c.BytesWrittenDRAM += o.BytesWrittenDRAM
	c.CacheMisses += o.CacheMisses
	c.BranchMisses += o.BranchMisses
	c.BytesSentLink += o.BytesSentLink
	c.BytesRecvLink += o.BytesRecvLink
	c.Messages += o.Messages
	c.BytesReadSSD += o.BytesReadSSD
	c.BytesWrittenSSD += o.BytesWrittenSSD
	c.BytesReadHDD += o.BytesReadHDD
	c.BytesWrittenHDD += o.BytesWrittenHDD
}

// Scale returns the counters multiplied by factor k (used by the optimizer
// to extrapolate sampled costs).  Counts are rounded toward zero.
func (c Counters) Scale(k float64) Counters {
	s := func(v uint64) uint64 { return uint64(float64(v) * k) }
	return Counters{
		Instructions:     s(c.Instructions),
		TuplesIn:         s(c.TuplesIn),
		TuplesOut:        s(c.TuplesOut),
		BytesReadDRAM:    s(c.BytesReadDRAM),
		BytesWrittenDRAM: s(c.BytesWrittenDRAM),
		CacheMisses:      s(c.CacheMisses),
		BranchMisses:     s(c.BranchMisses),
		BytesSentLink:    s(c.BytesSentLink),
		BytesRecvLink:    s(c.BytesRecvLink),
		Messages:         s(c.Messages),
		BytesReadSSD:     s(c.BytesReadSSD),
		BytesWrittenSSD:  s(c.BytesWrittenSSD),
		BytesReadHDD:     s(c.BytesReadHDD),
		BytesWrittenHDD:  s(c.BytesWrittenHDD),
	}
}
