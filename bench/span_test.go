package main

import "testing"

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,40]   with child g [15,25]
	//   b [30,60]   overlapping a by 10
	//   c [90,120]  running past the root's end
	spans := []span{
		{Name: "root", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "a", Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "g", Trace: 1, ID: 3, Parent: 2, Start: 15, End: 25},
		{Name: "b", Trace: 1, ID: 4, Parent: 1, Start: 30, End: 60},
		{Name: "c", Trace: 1, ID: 5, Parent: 1, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// The root's children cover [10,60] and, clipped, [90,100].
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 10, 4: 30, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestClosure(t *testing.T) {
	nested := []span{
		{Name: "request", Trace: 1, ID: 1, Start: 0, End: 1000, Weight: 1},
		{Name: "serve", Trace: 1, ID: 2, Parent: 1, Start: 0, End: 800},
		{Name: "parse", Trace: 1, ID: 3, Parent: 2, Start: 0, End: 50},
		{Name: "run", Trace: 1, ID: 4, Parent: 2, Start: 50, End: 650},
	}
	sum, root, rel := closure(nested)
	if sum != 1000 || root != 1000 || rel != 0 {
		t.Errorf("nested tree: sum %d, root %d, error %v; want 1000, 1000, 0", sum, root, rel)
	}
	byName := selfByName(nested)
	if byName["request"] != 200 || byName["serve"] != 150 || byName["parse"] != 50 || byName["run"] != 600 {
		t.Errorf("self by name = %v", byName)
	}

	// A rung measured longer than the rung above it breaks closure by
	// exactly the excess.
	broken := append([]span(nil), nested...)
	broken[3].End = 50 + 900 // run: 900 inside a serve of 800
	sum, root, rel = closure(broken)
	if root != 1000 || sum != 1000+150 || rel != 0.15 {
		t.Errorf("broken tree: sum %d, root %d, error %v; want 1150, 1000, 0.15", sum, root, rel)
	}
}

func TestSelfByNameWeighsTraces(t *testing.T) {
	spans := []span{
		{Name: "net", Trace: 1, ID: 1, Start: 0, End: 100, Weight: 0.75},
		{Name: "run", Trace: 1, ID: 2, Parent: 1, Start: 0, End: 60},
		{Name: "net", Trace: 2, ID: 3, Start: 0, End: 1000, Weight: 0.25},
		{Name: "run", Trace: 2, ID: 4, Parent: 3, Start: 0, End: 900},
	}
	got := selfByName(spans)
	if got["net"] != 0.75*40+0.25*100 || got["run"] != 0.75*60+0.25*900 {
		t.Errorf("weighted self times = %v", got)
	}
}
