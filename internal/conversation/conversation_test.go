package conversation_test

// Package conversation lives in internal/experiments/conversation, beside E13, the
// experiment that owns it; its tests keep this import path.

import (
	"sync"
	"testing"

	. "repro/internal/experiments/conversation"
)

func TestOverlayIsolation(t *testing.T) {
	s := NewStore()
	s.Set("price", 100)
	c := s.Open("app1")
	c.Set("price", 120)
	if v, _ := c.Get("price"); v != 120 {
		t.Fatal("conversation must see its own writes")
	}
	if v, _ := s.Get("price"); v != 100 {
		t.Fatal("base must be untouched before merge")
	}
	other := s.Open("app2")
	if v, _ := other.Get("price"); v != 100 {
		t.Fatal("other conversations must not see unmerged writes")
	}
}

func TestMaterializeBeyondTransactionScope(t *testing.T) {
	s := NewStore()
	s.Set("a", 1)
	c := s.Open("analytics")
	c.Set("b", 2)
	view := c.Materialize()
	if view["a"] != 1 || view["b"] != 2 {
		t.Fatalf("materialized view = %v", view)
	}
	// The view persists across later base writes (it is a copy).
	s.Set("a", 99)
	if view["a"] != 1 {
		t.Fatal("materialized view must be stable")
	}
}

func TestMergeInstallsWrites(t *testing.T) {
	s := NewStore()
	c := s.Open("w")
	c.Set("x", 7)
	c.Set("y", 8)
	if c.Pending() != 2 {
		t.Fatalf("pending = %d", c.Pending())
	}
	if err := c.Merge(AbortOnConflict); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Fatal("merge must clear the overlay")
	}
	if v, _ := s.Get("x"); v != 7 {
		t.Fatal("merge must install writes")
	}
}

func TestMergeConflictDetection(t *testing.T) {
	s := NewStore()
	s.Set("k", 1)
	c := s.Open("slow")
	c.Set("k", 2) // observes version of k
	s.Set("k", 10)
	if err := c.Merge(AbortOnConflict); err != ErrMergeConflict {
		t.Fatalf("expected conflict, got %v", err)
	}
	// Last-writer-wins merges anyway.
	if err := c.Merge(LastWriterWins); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k"); v != 2 {
		t.Fatalf("LWW merge lost: %d", v)
	}
}

func TestDisjointMergesDoNotConflict(t *testing.T) {
	s := NewStore()
	a := s.Open("a")
	b := s.Open("b")
	a.Set("ka", 1)
	b.Set("kb", 2)
	if err := a.Merge(AbortOnConflict); err != nil {
		t.Fatal(err)
	}
	if err := b.Merge(AbortOnConflict); err != nil {
		t.Fatalf("disjoint key sets must merge cleanly: %v", err)
	}
}

func TestConcurrentConversations(t *testing.T) {
	// Many apps, each writing its own key space, merge without
	// conflicts — the paper's community-of-applications picture.
	s := NewStore()
	const apps, writes = 8, 200
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c := s.Open("app")
			for i := 0; i < writes; i++ {
				c.Set(key(a, i), int64(i))
			}
			if err := c.Merge(AbortOnConflict); err != nil {
				t.Errorf("app %d: %v", a, err)
			}
		}(a)
	}
	wg.Wait()
	if s.Len() != apps*writes {
		t.Fatalf("base has %d keys, want %d", s.Len(), apps*writes)
	}
}

func key(a, i int) string {
	return string(rune('a'+a)) + "-" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
}

func TestContinueAfterMerge(t *testing.T) {
	s := NewStore()
	c := s.Open("c")
	c.Set("x", 1)
	if err := c.Merge(AbortOnConflict); err != nil {
		t.Fatal(err)
	}
	c.Set("x", 2) // conversation continues with fresh version tracking
	if err := c.Merge(AbortOnConflict); err != nil {
		t.Fatalf("sequential merges from one conversation must work: %v", err)
	}
	if v, _ := s.Get("x"); v != 2 {
		t.Fatal("second merge lost")
	}
}
