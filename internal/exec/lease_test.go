package exec

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/colstore"
	"repro/internal/energy"
	"repro/internal/expr"
	"repro/internal/vec"
)

func leaseTable(t *testing.T, n int) *colstore.Table {
	t.Helper()
	tab := colstore.NewTable("t", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "v", Type: colstore.Float64},
	})
	ks := make([]int64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = int64(i % 97)
		vs[i] = float64(i)
	}
	if err := tab.Writer().Int64("k", ks...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Writer().Float64("v", vs...).Close(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Seal(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestLeaseGrantClamps pins the grant floor: a running query always
// keeps one core; only Cancel takes the last one.
func TestLeaseGrantClamps(t *testing.T) {
	l := NewLease(0)
	if g := l.Grant(); g != 1 {
		t.Fatalf("zero grant must clamp to 1, got %d", g)
	}
	l.Resize(4)
	if g := l.Grant(); g != 4 {
		t.Fatalf("resize lost: got %d", g)
	}
	l.Resize(-3)
	if g := l.Grant(); g != 1 {
		t.Fatalf("negative grant must clamp to 1, got %d", g)
	}
	if l.Canceled() {
		t.Fatal("resize must not cancel")
	}
	l.Cancel()
	if !l.Canceled() {
		t.Fatal("cancel lost")
	}
}

// TestCtxDOPIsLeaseOrGOMAXPROCS pins the one width rule: the lease's
// grant when a lease is attached, GOMAXPROCS otherwise.
func TestCtxDOPIsLeaseOrGOMAXPROCS(t *testing.T) {
	ctx := NewCtx()
	if got := ctx.DOP(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("unleased ctx: DOP=%d, want GOMAXPROCS", got)
	}
	ctx.Lease = NewLease(7)
	if got := ctx.DOP(); got != 7 {
		t.Fatalf("lease grant ignored: DOP=%d", got)
	}
	ctx.Lease.Resize(2)
	if got := ctx.DOP(); got != 2 {
		t.Fatalf("resize not observed: DOP=%d", got)
	}
}

// TestRunPoolCancelMidTask cancels the lease from inside a task body and
// asserts the pool stops claiming at the next task boundary — the
// deterministic, single-worker version of mid-morsel revocation.
func TestRunPoolCancelMidTask(t *testing.T) {
	ctx := NewCtx()
	ctx.Lease = NewLease(1) // one worker: task order is 0,1,2,...
	ran := make([]bool, 16)
	runPool(ctx, len(ran), func(i int) (struct{}, energy.Counters) {
		ran[i] = true
		if i == 3 {
			ctx.Lease.Cancel()
		}
		return struct{}{}, energy.Counters{}
	})
	if !ctx.Canceled() {
		t.Fatal("cancellation lost")
	}
	for i := 0; i <= 3; i++ {
		if !ran[i] {
			t.Fatalf("task %d should have run before the cancel", i)
		}
	}
	for i := 4; i < len(ran); i++ {
		if ran[i] {
			t.Fatalf("task %d ran after the lease was canceled", i)
		}
	}
}

// TestScanCancelMidMorsel cancels a running Scan from
// inside its own morsel stream (via a lease canceled after the first
// morsel's charge lands) and requires ErrCanceled instead of a partial
// relation.  Run under -race in CI.
func TestScanCancelMidMorsel(t *testing.T) {
	tab := leaseTable(t, 3*MorselRows/2) // two morsels
	ctx := NewCtx()
	ctx.Lease = NewLease(1)
	scan := &Scan{Source: tab, Select: []string{"k"},
		Preds: []expr.Pred{{Col: "k", Op: vec.LT, Val: expr.IntVal(50)}}}
	// Cancel before any morsel is claimed: the scan must do no work.
	ctx.Lease.Cancel()
	rel, err := scan.Run(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got rel=%v err=%v", rel, err)
	}
	if w := ctx.Meter.Snapshot(); w != (energy.Counters{}) {
		t.Fatalf("canceled-before-start scan still charged work: %+v", w)
	}
}

// TestLeaseResizeMidQueryKeepsResults shrinks and regrows the grant
// between operators of one query and asserts the relation and counters
// match a one-core run — the contract that makes revocation safe.
func TestLeaseResizeMidQueryKeepsResults(t *testing.T) {
	tab := leaseTable(t, 2*MorselRows)
	plan := func() *HashAgg {
		return &HashAgg{
			Child: &Scan{Source: tab, Select: []string{"k", "v"},
				Preds: []expr.Pred{{Col: "k", Op: vec.LT, Val: expr.IntVal(60)}}},
			GroupBy: []string{"k"},
			Aggs:    []expr.AggSpec{{Func: expr.AggSum, Col: "v", As: "s"}},
		}
	}

	base := NewCtx()
	base.Lease = NewLease(1)
	want, err := plan().Run(base)
	if err != nil {
		t.Fatal(err)
	}

	ctx := NewCtx()
	ctx.Lease = NewLease(8)
	ctx.Lease.Resize(2) // scheduler shrank the grant before execution
	got, err := plan().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("leased run's relation differs from the one-core run")
	}
	if gw, ww := ctx.Meter.Snapshot(), base.Meter.Snapshot(); gw != ww {
		t.Fatalf("leased run's counters differ: %+v vs %+v", gw, ww)
	}
}
