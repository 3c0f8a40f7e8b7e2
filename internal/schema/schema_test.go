package schema_test

// Package schema lives in internal/experiments/schema, beside E12, the
// experiment that owns it; its tests keep this import path.

import (
	"reflect"
	"testing"

	. "repro/internal/experiments/schema"
)

func TestDataFirstIngestion(t *testing.T) {
	ft := NewFlexTable("events")
	if err := ft.Ingest(map[string]any{"user": int64(1), "url": "/home"}); err != nil {
		t.Fatal(err)
	}
	// Second record brings a new column: schema evolves in place.
	if err := ft.Ingest(map[string]any{"user": int64(2), "url": "/cart", "dwell": 3.5}); err != nil {
		t.Fatal(err)
	}
	if ft.Rows() != 2 {
		t.Fatalf("rows = %d", ft.Rows())
	}
	if got := ft.Columns(); !reflect.DeepEqual(sortCopy(got), []string{"dwell", "url", "user"}) {
		t.Fatalf("columns = %v", got)
	}
	// Row 0 predates "dwell": must be null.
	nulls, err := ft.NullCount("dwell")
	if err != nil || nulls != 1 {
		t.Fatalf("dwell nulls = %d, %v", nulls, err)
	}
	v, valid, err := ft.IntValue("user", 1)
	if err != nil || !valid || v != 2 {
		t.Fatalf("user[1] = %d,%v,%v", v, valid, err)
	}
}

func sortCopy(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestMissingColumnsPadEarlierRows(t *testing.T) {
	ft := NewFlexTable("t")
	for i := 0; i < 5; i++ {
		if err := ft.Ingest(map[string]any{"a": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ft.Ingest(map[string]any{"b": "late"}); err != nil {
		t.Fatal(err)
	}
	// Row 5 has no "a".
	_, valid, err := ft.IntValue("a", 5)
	if err != nil || valid {
		t.Fatal("row without the column must be null")
	}
	nb, _ := ft.NullCount("b")
	if nb != 5 {
		t.Fatalf("b nulls = %d, want 5", nb)
	}
}

func TestTypeClashRejected(t *testing.T) {
	ft := NewFlexTable("t")
	if err := ft.Ingest(map[string]any{"x": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := ft.Ingest(map[string]any{"x": "oops"}); err == nil {
		t.Fatal("type clash must be rejected")
	}
}

func TestIntAccepted(t *testing.T) {
	ft := NewFlexTable("t")
	if err := ft.Ingest(map[string]any{"x": 42}); err != nil {
		t.Fatal(err)
	}
	v, valid, err := ft.IntValue("x", 0)
	if err != nil || !valid || v != 42 {
		t.Fatal("plain int must be accepted as int64")
	}
}

func TestEagerVsDeferredSameResults(t *testing.T) {
	build := func(mode MaintMode) *FlexTable {
		ft := NewFlexTable("t")
		if err := ft.CreateIndex("k", mode); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := ft.Ingest(map[string]any{"k": int64(i % 10), "v": int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		return ft
	}
	eager := build(Eager)
	deferred := build(Deferred)
	for k := int64(0); k < 10; k++ {
		a, err := eager.Lookup("k", k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := deferred.Lookup("k", k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("k=%d: eager %v != deferred %v", k, a, b)
		}
	}
}

func TestNeedToKnowSavesMaintenanceWork(t *testing.T) {
	// E12's central claim: under update-heavy, read-rare load, deferred
	// maintenance does the per-row work only for rows that precede an
	// actual read.
	const inserts = 10000
	run := func(mode MaintMode, reads int) MaintStats {
		ft := NewFlexTable("t")
		if err := ft.CreateIndex("k", mode); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < inserts; i++ {
			if err := ft.Ingest(map[string]any{"k": int64(i % 100)}); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < reads; r++ {
			if _, err := ft.Lookup("k", int64(r%100)); err != nil {
				t.Fatal(err)
			}
		}
		st, err := ft.IndexStats("k")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	eager := run(Eager, 0)
	defNoRead := run(Deferred, 0)
	if eager.MaintOps != inserts {
		t.Fatalf("eager ops = %d, want %d", eager.MaintOps, inserts)
	}
	if defNoRead.MaintOps != 0 || defNoRead.Backlog != inserts {
		t.Fatalf("deferred-no-read must do zero work: %+v", defNoRead)
	}
	defRead := run(Deferred, 1)
	if defRead.MaintOps != inserts || defRead.Rebuilds != 1 || defRead.Backlog != 0 {
		t.Fatalf("first read must absorb the backlog once: %+v", defRead)
	}
	defMany := run(Deferred, 50)
	if defMany.Rebuilds != 1 {
		t.Fatalf("subsequent reads with no new inserts must not rebuild: %+v", defMany)
	}
}

func TestIndexOnMissingColumnThenIngest(t *testing.T) {
	ft := NewFlexTable("t")
	if err := ft.CreateIndex("k", Deferred); err != nil {
		t.Fatal(err)
	}
	if rows, err := ft.Lookup("k", 5); err != nil || rows != nil {
		t.Fatalf("lookup before column exists = %v, %v", rows, err)
	}
	if err := ft.Ingest(map[string]any{"k": int64(5)}); err != nil {
		t.Fatal(err)
	}
	rows, err := ft.Lookup("k", 5)
	if err != nil || len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("lookup = %v, %v", rows, err)
	}
}

func TestIndexErrors(t *testing.T) {
	ft := NewFlexTable("t")
	if err := ft.Ingest(map[string]any{"s": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := ft.CreateIndex("s", Eager); err == nil {
		t.Error("index on string column must error")
	}
	if _, err := ft.Lookup("none", 1); err == nil {
		t.Error("lookup without index must error")
	}
	if _, err := ft.IndexStats("none"); err == nil {
		t.Error("stats without index must error")
	}
	if _, err := ft.NullCount("ghost"); err == nil {
		t.Error("unknown column must error")
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if KindInt.String() != "int" || KindFloat.String() != "float" || KindString.String() != "string" {
		t.Fatal("kind names wrong")
	}
	if Eager.String() != "eager" || Deferred.String() != "deferred" {
		t.Fatal("mode names wrong")
	}
}
