// Package ship is experiment E3's compress-vs-send decision (paper §IV:
// "an optimizer has to decide about sending intermediate data in a
// compressed or uncompressed format to other nodes or even sockets on the
// same board ... the optimizer has to decide on a case-by-case basis"):
// every codec priced for one link through the optimizer's cost model,
// against an oracle that actually compresses.
package ship

import (
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/codec"
	"repro/internal/netsim"
	"repro/internal/opt"
)

// Plan is one priced shipping alternative.
type Plan struct {
	Codec codec.Codec
	Ratio float64 // predicted compressed/raw size
	Cost  opt.Cost
}

// Estimate prices shipping n values (rawBytes total) through link with
// the codec at the predicted compression ratio.
func Estimate(cm *opt.CostModel, n int, rawBytes uint64, ratio float64, cd codec.Codec, link *netsim.Link) opt.Cost {
	wire := uint64(float64(rawBytes) * ratio)
	if wire == 0 && rawBytes > 0 {
		wire = 1
	}
	var w energy.Counters
	w.Instructions = uint64(float64(n) * cd.CostFactor() * 2) // compress + decompress
	w.BytesReadDRAM = rawBytes
	w.BytesWrittenDRAM = rawBytes
	w.BytesSentLink = wire
	w.BytesRecvLink = wire
	w.Messages = (wire + link.MTU - 1) / link.MTU
	wireTime := link.Latency + time.Duration(float64(wire)/link.Bandwidth*float64(time.Second))
	c := cm.Price(w, wireTime)
	// Link idle power burns for the whole transfer.
	c.Energy += energy.StaticEnergy(link.Idle, wireTime)
	return c
}

// better reports whether a beats b under the objective: shorter, cheaper
// in joules, or lower in energy-delay product.
func better(obj opt.Objective, a, b opt.Cost) bool {
	switch obj {
	case opt.MinEnergy:
		return a.Energy < b.Energy
	case opt.MinEDP:
		return energy.EDP(a.Energy, a.Time) < energy.EDP(b.Energy, b.Time)
	default:
		return a.Time < b.Time
	}
}

// ChooseCodec picks the best codec for shipping the given values over the
// link under the objective.  Ratios are predicted from a bounded sample so
// the decision itself stays cheap.
func ChooseCodec(cm *opt.CostModel, values []int64, link *netsim.Link, obj opt.Objective) Plan {
	rawBytes := uint64(len(values)) * 8
	sample := values
	if len(sample) > 8192 {
		sample = values[:8192]
	}
	best := Plan{}
	for _, cd := range codec.All() {
		ratio := 1.0
		if cd != codec.None {
			ratio = codec.Ratio(cd, sample)
		}
		c := Estimate(cm, len(values), rawBytes, ratio, cd, link)
		if best.Codec == nil || better(obj, c, best.Cost) {
			best = Plan{Codec: cd, Ratio: ratio, Cost: c}
		}
	}
	return best
}

// OracleCodec actually compresses with every codec and returns the codec
// with the best *measured* objective value — the ground truth experiment
// E3 compares the estimator against.
func OracleCodec(cm *opt.CostModel, values []int64, link *netsim.Link, obj opt.Objective) Plan {
	rawBytes := uint64(len(values)) * 8
	best := Plan{}
	for _, cd := range codec.All() {
		payload := cd.Compress(values)
		ratio := float64(len(payload)) / float64(rawBytes)
		c := Estimate(cm, len(values), rawBytes, ratio, cd, link)
		if best.Codec == nil || better(obj, c, best.Cost) {
			best = Plan{Codec: cd, Ratio: ratio, Cost: c}
		}
	}
	return best
}
