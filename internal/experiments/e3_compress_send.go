package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments/ship"
	"repro/internal/experiments/synth"
	"repro/internal/netsim"
	"repro/internal/opt"
)

func init() {
	register(Experiment{
		ID:    "E3",
		Title: "compress-vs-send for intermediate results",
		Claim: "\"an optimizer has to decide about sending intermediate data in a compressed or uncompressed format ... both cost factors are independent, the optimizer has to decide on a case-by-case basis\" (§IV)",
		Run:   runE3,
	})
}

// E3Row is one (data shape, link) decision.
type E3Row struct {
	Data      string
	Link      string
	Chosen    string
	Oracle    string
	Ratio     float64
	EstTime   time.Duration
	EstJ      energy.Joules
	RawTime   time.Duration // the ship-raw alternative
	RawJ      energy.Joules
	Agreement bool
}

// E3Matrix evaluates the codec decision for three data shapes over the
// link ladder.
func E3Matrix(n int) []E3Row {
	cm := opt.NewCostModel(energy.DefaultModel())
	shapes := []struct {
		name string
		data []int64
	}{
		{"runs(avg100)", synth.RunsInts(11, n, 8, 100)},
		{"sorted", synth.SortedInts(12, n, 20)},
		{"uniform62bit", synth.UniformInts(13, n, 1<<62)},
	}
	var out []E3Row
	for _, sh := range shapes {
		for _, link := range netsim.DefaultLinks() {
			chosen := ship.ChooseCodec(cm, sh.data, link, opt.MinEnergy)
			oracle := ship.OracleCodec(cm, sh.data, link, opt.MinEnergy)
			rawBytes := uint64(len(sh.data)) * 8
			raw := ship.Estimate(cm, len(sh.data), rawBytes, 1, chosen.Codec, link)
			out = append(out, E3Row{
				Data: sh.name, Link: link.Name,
				Chosen: chosen.Codec.Name(), Oracle: oracle.Codec.Name(),
				Ratio: chosen.Ratio, EstTime: chosen.Cost.Time, EstJ: chosen.Cost.Energy,
				RawTime: raw.Time, RawJ: raw.Energy,
				Agreement: chosen.Codec.Name() == oracle.Codec.Name(),
			})
		}
	}
	return out
}

func runE3(w io.Writer) error {
	rows := E3Matrix(2_000_000)
	tw := newTable(w)
	fmt.Fprintln(tw, "data\tlink\tchosen\toracle\tratio\test-time\test-J\tagree")
	agree := 0
	for _, r := range rows {
		if r.Agreement {
			agree++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f\t%v\t%v\t%v\n",
			r.Data, r.Link, r.Chosen, r.Oracle, r.Ratio,
			r.EstTime.Round(10*time.Microsecond), r.EstJ, r.Agreement)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nestimator agrees with the oracle on %d/%d cells.\n", agree, len(rows))
	fmt.Fprintln(w, "shape: compression wins on slow links and compressible data; raw wins on fast links with incompressible data.")
	return nil
}
