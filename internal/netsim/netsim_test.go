package netsim

import (
	"testing"
	"time"

	"repro/internal/energy"
)

func TestDefaultLinksOrdering(t *testing.T) {
	links := DefaultLinks()
	if len(links) < 3 {
		t.Fatal("need a ladder of links")
	}
	for i := 1; i < len(links); i++ {
		if links[i].Bandwidth <= links[i-1].Bandwidth {
			t.Error("links must be ordered by increasing bandwidth")
		}
		if links[i].Latency >= links[i-1].Latency {
			t.Error("faster links should have lower latency")
		}
	}
}

func TestShipAccounting(t *testing.T) {
	l, err := LinkByName("1Gbps")
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(1 << 20)
	d, c := l.Ship(n)
	if c.BytesSentLink != n || c.BytesRecvLink != n {
		t.Fatalf("byte counters wrong: %+v", c)
	}
	wantMsgs := (n + l.MTU - 1) / l.MTU
	if c.Messages != wantMsgs {
		t.Fatalf("messages = %d want %d", c.Messages, wantMsgs)
	}
	// 1 MiB over 125 MB/s is ~8.4 ms plus latency.
	wantTime := l.Latency + time.Duration(float64(n)/l.Bandwidth*float64(time.Second))
	if d != wantTime {
		t.Fatalf("duration = %v want %v", d, wantTime)
	}
	if d2, c2 := l.Ship(0); d2 != 0 || c2 != (energy.Counters{}) {
		t.Error("empty ship must be free")
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	slow, _ := LinkByName("0.1Gbps")
	fast, _ := LinkByName("40Gbps")
	transfer := func(l *Link, n uint64) time.Duration {
		d, _ := l.Ship(n)
		return d
	}
	if transfer(slow, 1<<24) <= transfer(fast, 1<<24) {
		t.Error("slow link must be slower")
	}
	if transfer(fast, 1<<24) <= transfer(fast, 1<<10) {
		t.Error("more bytes must take longer")
	}
}

func TestLinkByNameUnknown(t *testing.T) {
	if _, err := LinkByName("teleport"); err == nil {
		t.Fatal("unknown link must error")
	}
}
