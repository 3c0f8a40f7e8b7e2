package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/opt"
	"repro/internal/sql"
)

// Execution starts at virtual dispatch, on a goroutine of its own: these
// tests hold a query inside Run (or crash it there) and watch the loop
// from outside.

// heldNode wraps a real plan: Run hands out its Ctx, then blocks until
// released.
type heldNode struct {
	exec.Node
	entered chan *exec.Ctx
	release chan struct{}
}

func (h *heldNode) Run(ctx *exec.Ctx) (*exec.Relation, error) {
	h.entered <- ctx
	<-h.release
	return h.Node.Run(ctx)
}

// faultyNode is an operator with a bug.
type faultyNode struct{ exec.Node }

func (faultyNode) Run(*exec.Ctx) (*exec.Relation, error) { panic("operator bug") }

func planMinTime(t *testing.T, e *Engine, text string) (exec.Node, *opt.PlanInfo) {
	t.Helper()
	q, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	node, info, err := e.Plan(q, opt.MinTime)
	if err != nil {
		t.Fatal(err)
	}
	return node, info
}

// TestLeaseFollowsLiveGrant: a lone min-time query starts executing at
// the whole budget; a second arrival re-divides the cores and the running
// query's lease shrinks with its grant (its worker pool sheds workers at
// the next morsel boundary), and the query still settles with its widest
// grant reported.
func TestLeaseFollowsLiveGrant(t *testing.T) {
	const budget = 4
	e := submitEngine(t, 1<<16)
	l := e.NewLoop(SchedulerConfig{Budget: budget, Arbitrate: true})
	node, info := planMinTime(t, e, "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 5")
	held := &heldNode{Node: node, entered: make(chan *exec.Ctx, 1), release: make(chan struct{})}

	first := l.OfferPlanned(0, held, info, opt.MinTime)
	l.React()
	lease := (<-held.entered).Lease // inside Run, before the loop moved again
	if lease != first.Lease || lease.Grant() != budget {
		t.Fatalf("lone query runs under grant %d, want the whole budget %d on its own lease", lease.Grant(), budget)
	}

	other, otherInfo := planMinTime(t, e, "SELECT COUNT(*), SUM(amount) FROM orders WHERE custkey = 6")
	second := l.OfferPlanned(0, other, otherInfo, opt.MinTime)
	if settled := l.React(); len(settled) != 0 {
		t.Fatalf("React settled %d tickets with both schedules still running", len(settled))
	}
	if g := lease.Grant(); g >= budget || g < 1 {
		t.Fatalf("running query's grant is %d after a second arrival, want it below %d", g, budget)
	}
	if lease.Grant()+second.Lease.Grant() > budget {
		t.Fatalf("grants %d + %d exceed the budget %d", lease.Grant(), second.Lease.Grant(), budget)
	}

	close(held.release)
	if settled := l.RunToIdle(); len(settled) != 2 {
		t.Fatalf("RunToIdle settled %d tickets, want 2", len(settled))
	}
	if first.Err != nil || second.Err != nil || first.Rel == nil || second.Rel == nil {
		t.Fatalf("tickets settled as %v / %v", first.Err, second.Err)
	}
	if first.DOP != budget {
		t.Fatalf("reported DOP %d, want the widest grant %d", first.DOP, budget)
	}
}

// TestPanicInRunIsOneTicketsFailure: a panic inside an operator is
// recovered where the plan runs — the ticket settles as Err, the data
// latch is released (a write takes it exclusively right after), and the
// loop keeps serving.
func TestPanicInRunIsOneTicketsFailure(t *testing.T) {
	e := submitEngine(t, 1<<14)
	l := e.NewLoop(SchedulerConfig{Budget: 2, Arbitrate: true})
	node, info := planMinTime(t, e, "SELECT COUNT(*) FROM orders WHERE custkey = 5")

	bad := l.OfferPlanned(0, faultyNode{node}, info, opt.MinTime)
	good := l.OfferPlanned(0, node, info, opt.MinTime)
	l.React()
	l.RunToIdle()
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "operator bug") || bad.Rel != nil {
		t.Fatalf("panicking ticket settled as err=%v rel=%v", bad.Err, bad.Rel)
	}
	if errors.Is(bad.Err, exec.ErrCanceled) {
		t.Fatalf("a panic must not read as a cancellation: %v", bad.Err)
	}
	if good.Err != nil || good.Rel == nil {
		t.Fatalf("the query beside the panic settled as %v", good.Err)
	}
	execStmt(t, e, "INSERT INTO orders VALUES (900001, 5, 1.5)", 0)
	after := l.OfferPlanned(l.Now(), node, info, opt.MinTime)
	l.React()
	l.RunToIdle()
	if after.Err != nil || after.Rel.Cols[0].I[0] != good.Rel.Cols[0].I[0]+1 {
		t.Fatalf("query after the panic and the write: err=%v rel=%+v", after.Err, after.Rel)
	}
}
