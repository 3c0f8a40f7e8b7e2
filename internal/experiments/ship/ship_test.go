package ship

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/experiments/synth"
	"repro/internal/netsim"
	"repro/internal/opt"
)

func TestChooseCodecFlipsWithLinkSpeed(t *testing.T) {
	// E3 shape: compressible data should ship compressed on slow links
	// and (near-incompressible data) raw on fast links.
	cm := opt.NewCostModel(energy.DefaultModel())
	runs := synth.RunsInts(5, 200000, 4, 100) // highly compressible
	slow, _ := netsim.LinkByName("0.1Gbps")
	fast, _ := netsim.LinkByName("40Gbps")

	p := ChooseCodec(cm, runs, slow, opt.MinTime)
	if p.Codec.Name() == "none" {
		t.Error("slow link with compressible data must compress")
	}
	wide := synth.UniformInts(6, 200000, 1<<62) // ~incompressible
	p = ChooseCodec(cm, wide, fast, opt.MinTime)
	if p.Codec.Name() != "none" && p.Ratio < 0.95 {
		t.Errorf("fast link with incompressible data picked %s at ratio %g", p.Codec.Name(), p.Ratio)
	}
	// The estimator should agree with the oracle on clear-cut cases.
	est := ChooseCodec(cm, runs, slow, opt.MinEnergy)
	orc := OracleCodec(cm, runs, slow, opt.MinEnergy)
	if est.Codec.Name() != orc.Codec.Name() {
		t.Errorf("estimator picked %s, oracle %s", est.Codec.Name(), orc.Codec.Name())
	}
}
