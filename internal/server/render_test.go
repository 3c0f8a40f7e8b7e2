package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
	"repro/internal/workload"
)

// boxedBody is the reference rendering: the queryResponse value, every
// row boxed through Relation.Row, marshalled by encoding/json — what
// renderTicket did before it appended from the typed columns.
func boxedBody(t *testing.T, tk *core.Ticket) []byte {
	t.Helper()
	resp := queryResponse{
		ID:        tk.ID,
		Objective: tk.Objective.String(),
		Columns:   tk.Rel.ColNames(),
		Rows:      make([][]any, 0, tk.Rel.N),
		Work:      tk.Work,
		Energy:    responseEnergy{Joules: float64(tk.Energy.Total()), Breakdown: tk.Energy},
	}
	for r := 0; r < tk.Rel.N; r++ {
		resp.Rows = append(resp.Rows, tk.Rel.Row(r))
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestRenderTicketMatchesEncodingJSON is the property behind the
// unboxed renderer: over random relations — the floats and strings
// encoding/json treats specially included — its bytes equal
// json.Marshal of the queryResponse.
func TestRenderTicketMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 3, 1e6, 123456789, 0.1, 1.5, -2.25,
		1e21, -1e21, 9.999999999999999e20, 1.0000000000000002e21, 1e-6, 1e-7, -1e-7, 9.99e-7,
		1e100, 1e-100, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 2.5e-9, 1e22, 123456789012345678}
	strs := []string{"", "ASIA", "plain ascii 123", `say "hi"`, `back\slash`, "<script>&amp;</script>",
		"line\nbreak\ttab\rret", "\x00\x01\x1f", "\x7f", "\b\f", "café 世界 \U0001F600",
		"  and  ", "bad \xff utf8 \xc3", "\xed\xa0\x80", "a/b"}
	rng := workload.NewRNG(15)
	pickF := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(rng.Uint64()) // any bit pattern, fixed below if not finite
		}
		return floats[rng.Intn(len(floats))]
	}
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(6)
		if iter == 0 {
			n = 0 // the empty relation, whatever the generator draws
		}
		rel := &exec.Relation{N: n}
		for ci, nc := 0, rng.Intn(5); ci < nc; ci++ {
			col := exec.Col{Name: strs[rng.Intn(len(strs))] + fmt.Sprint(ci)}
			switch rng.Intn(4) {
			case 0:
				col.Type = colstore.Int64
				for r := 0; r < n; r++ {
					col.I = append(col.I, int64(rng.Uint64()))
				}
			case 1:
				col.Type = colstore.Float64
				for r := 0; r < n; r++ {
					f := pickF()
					if math.IsNaN(f) || math.IsInf(f, 0) {
						f = 0.5
					}
					col.F = append(col.F, f)
				}
			case 2: // strings interned from outside storage
				vals := make([]string, n)
				for r := range vals {
					vals[r] = strs[rng.Intn(len(strs))]
				}
				col = exec.StringCol(col.Name, vals)
			default: // codes into a shared dictionary
				col.Type, col.Dict = colstore.String, strs
				for r := 0; r < n; r++ {
					col.I = append(col.I, int64(rng.Intn(len(strs))))
				}
			}
			rel.Cols = append(rel.Cols, col)
		}
		tk := &core.Ticket{}
		tk.ID, tk.Objective, tk.Rel = iter, opt.Objective(rng.Intn(3)), rel
		tk.Work = energy.Counters{Instructions: rng.Uint64(), BytesReadDRAM: rng.Uint64(), TuplesOut: uint64(n)}
		tk.Energy = energy.Breakdown{Static: energy.Joules(pickAbs(pickF())), DRAM: 1e-7}

		status, got := renderTicket(tk)
		if want := boxedBody(t, tk); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: status %d\n got: %s\nwant: %s", iter, status, got, want)
		}
	}
}

// pickAbs maps any float onto a finite non-negative one (an energy).
func pickAbs(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0.25
	}
	return math.Abs(f)
}

// TestRenderTicketRejectsNonFinite: NaN and ±Inf have no JSON form;
// encoding/json fails on them, and so does the renderer — as the internal
// error envelope, not as an empty 200.
func TestRenderTicketRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tk := &core.Ticket{}
		tk.Rel = &exec.Relation{N: 1, Cols: []exec.Col{{Name: "x", Type: colstore.Float64, F: []float64{f}}}}
		status, body := renderTicket(tk)
		var env errEnvelope
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusInternalServerError || env.Error.Code != "internal" {
			t.Fatalf("%v rendered as %d %s", f, status, body)
		}
	}
}

// TestRenderOutlivesDictionaryWrites: a response renders its string
// columns through the stored column's dictionary after the query has
// released the data latch.  While the body renders, INSERTs append unseen
// values to that very column and a merge re-seals it (SealSorted replaces
// the dictionary) — and not a byte of the body may change: a dictionary is
// appended to only past the slice a relation holds, and replaced, never
// rewritten in place.  Run it under -race.
func TestRenderOutlivesDictionaryWrites(t *testing.T) {
	e := core.Open()
	tab, err := e.CreateTable("events", colstore.Schema{{Name: "id", Type: colstore.Int64}, {Name: "tag", Type: colstore.String}})
	if err != nil {
		t.Fatal(err)
	}
	w := tab.Writer()
	for i := 0; i < 2000; i++ {
		w.Row(int64(i), fmt.Sprintf("tag%03d", i%97))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal("events"); err != nil {
		t.Fatal(err)
	}
	insert := func(id int, tag string) {
		st, err := sql.ParseStmt(fmt.Sprintf("INSERT INTO events VALUES (%d, '%s')", id, tag))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := e.ExecDML(st.DML, 0); err != nil {
			t.Error(err)
		}
	}
	// A live delta whose values the sealed dictionary has never seen.
	for i := 0; i < 20; i++ {
		insert(2000+i, fmt.Sprintf("live%02d", i))
	}
	res, err := e.Query("SELECT id, tag FROM events WHERE id >= 1990")
	if err != nil {
		t.Fatal(err)
	}
	tk := &core.Ticket{}
	tk.Rel = res.Rel
	_, before := renderTicket(tk)

	st, err := e.Catalog().Lookup("events")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			insert(3000+i, fmt.Sprintf("new%03d", i))
			if i%10 == 9 {
				if _, err := (&exec.Compact{Table: st}).Run(exec.NewCtx()); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	for rendering := true; rendering; {
		select {
		case <-done:
			rendering = false
		default:
		}
		if _, body := renderTicket(tk); !bytes.Equal(body, before) {
			t.Fatalf("the body changed under concurrent writes:\n got %s\nwant %s", body, before)
		}
	}
}
