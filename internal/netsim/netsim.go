// Package netsim simulates the interconnect the distributed decisions of
// the paper reason about: links with bandwidth, latency, and per-byte
// energy.  The optimizer's compress-vs-send choice (experiment E3) and the
// WAL's replicated commit (E9) ship bytes through these links.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/energy"
)

// Link models one point-to-point connection.
type Link struct {
	Name      string
	Bandwidth float64       // bytes per second
	Latency   time.Duration // one-way propagation + stack latency
	PerByte   energy.Joules // NIC + switch dynamic energy per byte
	PerMsg    energy.Joules // fixed per-message energy
	Idle      energy.Watts  // link idle power
	MTU       uint64        // bytes per message frame
}

// DefaultLinks returns the link ladder used by experiment E3: from a slow
// WAN-ish 100 Mb/s pipe up to a 40 Gb/s board-level interconnect.
func DefaultLinks() []*Link {
	mk := func(name string, gbps float64, lat time.Duration) *Link {
		return &Link{
			Name:      name,
			Bandwidth: gbps * 1e9 / 8,
			Latency:   lat,
			PerByte:   8e-9,
			PerMsg:    2e-6,
			Idle:      2,
			MTU:       64 << 10,
		}
	}
	return []*Link{
		mk("0.1Gbps", 0.1, 500*time.Microsecond),
		mk("1Gbps", 1, 100*time.Microsecond),
		mk("10Gbps", 10, 20*time.Microsecond),
		mk("40Gbps", 40, 5*time.Microsecond),
	}
}

// LinkByName finds a link in DefaultLinks.
func LinkByName(name string) (*Link, error) {
	for _, l := range DefaultLinks() {
		if l.Name == name {
			return l, nil
		}
	}
	return nil, fmt.Errorf("netsim: unknown link %q", name)
}

// Ship transfers n bytes over the link and returns the simulated transfer
// time plus the energy-relevant counters (sender side; receive counters
// mirror the sent bytes).
func (l *Link) Ship(n uint64) (time.Duration, energy.Counters) {
	if n == 0 {
		return 0, energy.Counters{}
	}
	msgs := (n + l.MTU - 1) / l.MTU
	d := l.Latency + time.Duration(float64(n)/l.Bandwidth*float64(time.Second))
	return d, energy.Counters{
		BytesSentLink: n,
		BytesRecvLink: n,
		Messages:      msgs,
	}
}
