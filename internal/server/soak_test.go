package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestServeSoakConcurrent hammers the handler from many goroutines
// while a background driver advances the virtual clock, then audits
// conservation: every request got exactly one response, every ticket a
// distinct ID, and the energy books balance — attributed dynamic is
// fleet dynamic plus the batching saving, and the physical work book
// never exceeds the attributed one.  Run under -race this is the
// concurrency acceptance for the serving front end; it asserts no
// wall-clock behavior.
func TestServeSoakConcurrent(t *testing.T) {
	s, sc := testServer(t, core.SchedulerConfig{Budget: 2, BatchScans: true, Arbitrate: true}, nil)
	stop := startDriver(sc)
	defer stop()

	const clients, perClient = 8, 6
	type reply struct {
		code int
		body string
	}
	replies := make(chan reply, clients*perClient)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := 0; m < perClient; m++ {
				// Five hot keys so concurrent lookalikes can batch.
				body := fmt.Sprintf(`{"sql":"SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = %d"}`,
					(g*perClient+m)%5)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
				replies <- reply{rec.Code, rec.Body.String()}
			}
		}(g)
	}
	wg.Wait()
	close(replies)

	ids := make(map[int]bool, clients*perClient)
	for r := range replies {
		if r.code != 200 {
			t.Fatalf("soak response %d: %s", r.code, r.body)
		}
		var qr queryResponse
		if err := json.Unmarshal([]byte(r.body), &qr); err != nil {
			t.Fatalf("bad soak body %q: %v", r.body, err)
		}
		if ids[qr.ID] {
			t.Fatalf("duplicated response for ticket %d", qr.ID)
		}
		if qr.ID < 0 || qr.ID >= clients*perClient {
			t.Fatalf("ticket id %d outside the dense arrival range", qr.ID)
		}
		ids[qr.ID] = true
	}
	if len(ids) != clients*perClient {
		t.Fatalf("lost responses: %d of %d arrived", len(ids), clients*perClient)
	}

	s.mu.Lock()
	rep := s.loop.Report()
	s.mu.Unlock()
	if rep.Fleet.Completed != clients*perClient || rep.Fleet.Rejected != 0 {
		t.Fatalf("fleet completed=%d rejected=%d, want %d/0",
			rep.Fleet.Completed, rep.Fleet.Rejected, clients*perClient)
	}
	if rep.SavedDynamic < 0 {
		t.Fatalf("negative batching saving %v", rep.SavedDynamic)
	}
	if rep.Physical.BytesReadDRAM > rep.Attributed.BytesReadDRAM {
		t.Fatalf("physical book read %d bytes, attributed only %d",
			rep.Physical.BytesReadDRAM, rep.Attributed.BytesReadDRAM)
	}

	// The /stats identity must hold over the same books.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != clients*perClient {
		t.Fatalf("/stats completed %d, want %d", st.Completed, clients*perClient)
	}
	if gap := st.Energy.AttributedDynamicJ - st.Energy.FleetDynamicJ - st.Energy.SavedDynamicJ; gap != 0 {
		t.Fatalf("books out of balance: attributed - fleet - saved = %g", gap)
	}
}
