package exec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/experiments/synth"
	"repro/internal/workload"
)

// relNode serves a pre-built relation, so join tests can feed exact
// intermediate shapes without a backing table.
type relNode struct{ r *Relation }

func (n relNode) Run(*Ctx) (*Relation, error) { return n.r, nil }
func (n relNode) Label() string               { return "rel" }
func (n relNode) Kids() []Node                { return nil }

// intRel builds a relation of one BIGINT key column plus a payload.
func intRel(name string, keys []int64) *Relation {
	payload := make([]int64, len(keys))
	for i := range payload {
		payload[i] = int64(i) * 3
	}
	return &Relation{
		N: len(keys),
		Cols: []Col{
			{Name: name, Type: colstore.Int64, I: keys},
			{Name: name + "_payload", Type: colstore.Int64, I: payload},
		},
	}
}

// runJoin executes a join node at the given DOP and returns the result
// plus the total charged counters.
func runJoin(t *testing.T, n Node, dop int) (*Relation, *Ctx) {
	t.Helper()
	ctx := NewCtx()
	ctx.Lease = NewLease(dop)
	rel, err := n.Run(ctx)
	must(t, err)
	return rel, ctx
}

// TestJoinMatchesSerial drives the partitioned pipeline and asserts the
// relation is byte-identical to the map oracle over the same inputs.
func TestJoinMatchesSerial(t *testing.T) {
	lkeys := synth.UniformInts(11, 90_000, 12_000)
	rkeys := synth.UniformInts(12, 9_000, 12_000)
	left, right := intRel("lk", lkeys), intRel("rk", rkeys)

	serial, _ := runJoin(t, &mapJoin{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 1)
	par, _ := runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 4)
	if serial.N == 0 {
		t.Fatal("degenerate test: no matches")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("partitioned join diverges from the map oracle")
	}
}

// TestJoinDOPInvariant asserts relations AND charged counters are
// byte-identical across degrees of parallelism.  (The CI container is
// 1-CPU: invariance is the contract here, never wall-clock speedup.)
func TestJoinDOPInvariant(t *testing.T) {
	lkeys := synth.UniformInts(13, 80_000, 7_000)
	rkeys := synth.UniformInts(14, 20_000, 7_000)
	left, right := intRel("lk", lkeys), intRel("rk", rkeys)

	join := func(dop int) (*Relation, *Ctx) {
		return runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, dop)
	}
	base, baseCtx := join(1)
	for _, dop := range []int{2, 8} {
		rel, ctx := join(dop)
		if !reflect.DeepEqual(rel, base) {
			t.Fatalf("DOP %d relation differs from DOP 1", dop)
		}
		if ctx.Meter.Snapshot() != baseCtx.Meter.Snapshot() {
			t.Fatalf("DOP %d counters differ from DOP 1:\n%+v\nvs\n%+v",
				dop, ctx.Meter.Snapshot(), baseCtx.Meter.Snapshot())
		}
	}
}

// TestJoinEmptySides covers an empty build side (every probe
// misses) and an empty probe side.
func TestJoinEmptySides(t *testing.T) {
	big := intRel("lk", synth.UniformInts(15, 70_000, 1000))
	empty := intRel("rk", nil)
	rel, _ := runJoin(t, &Join{Left: relNode{big}, Right: relNode{empty}, LeftKey: "lk", RightKey: "rk"}, 4)
	if rel.N != 0 {
		t.Fatalf("join against empty build side produced %d rows", rel.N)
	}
	if len(rel.Cols) != 3 {
		t.Fatalf("empty join must keep the output schema, got %d cols", len(rel.Cols))
	}
	bigR := intRel("rk", synth.UniformInts(16, 70_000, 1000))
	emptyL := intRel("lk", nil)
	rel, _ = runJoin(t, &Join{Left: relNode{emptyL}, Right: relNode{bigR}, LeftKey: "lk", RightKey: "rk"}, 4)
	if rel.N != 0 {
		t.Fatalf("join with empty probe side produced %d rows", rel.N)
	}
}

// TestJoinAllDuplicateKeys is the cross-product blowup: every
// key identical, so the output is |probe| × |build| and every build row
// lands in one radix partition (maximal skew).
func TestJoinAllDuplicateKeys(t *testing.T) {
	lkeys := make([]int64, 66_000)
	rkeys := make([]int64, 9)
	for i := range lkeys {
		lkeys[i] = 7
	}
	for i := range rkeys {
		rkeys[i] = 7
	}
	left, right := intRel("lk", lkeys), intRel("rk", rkeys)
	rel, _ := runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 4)
	if rel.N != len(lkeys)*len(rkeys) {
		t.Fatalf("cross-product join produced %d rows, want %d", rel.N, len(lkeys)*len(rkeys))
	}
	// Build rows must cycle in ascending order within each probe row.
	rp, _ := rel.Col("rk_payload")
	for i := 0; i < len(rkeys); i++ {
		if rp.I[i] != int64(i)*3 {
			t.Fatalf("duplicate chain out of order at %d: %d", i, rp.I[i])
		}
	}
	serial, _ := runJoin(t, &mapJoin{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 1)
	if !reflect.DeepEqual(serial, rel) {
		t.Fatal("blowup join diverges from the map oracle")
	}
}

// TestJoinSkewedPartitions joins on a handful of distinct keys,
// leaving nearly every radix partition empty and a few heavily loaded.
// The build side stays small so the near-cross-product output does not.
func TestJoinSkewedPartitions(t *testing.T) {
	lkeys := synth.UniformInts(17, 80_000, 5)
	rkeys := synth.UniformInts(18, 30, 3)
	left, right := intRel("lk", lkeys), intRel("rk", rkeys)
	serial, _ := runJoin(t, &mapJoin{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 1)
	par, parCtx := runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 8)
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("skewed join diverges from the map oracle")
	}
	par2, par2Ctx := runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 1)
	if !reflect.DeepEqual(par, par2) || parCtx.Meter.Snapshot() != par2Ctx.Meter.Snapshot() {
		t.Fatal("skewed join not DOP-invariant")
	}
}

// dictTables builds a fact and a dim table over overlapping-but-different
// string dictionaries (some dim names never referenced, some fact names
// absent from dim), returning sealed or raw copies.
func dictTables(t *testing.T, nFact, nDim int, seal bool) (fact, dim *colstore.Table) {
	t.Helper()
	names := make([]string, nDim+40)
	for i := range names {
		names[i] = "cust" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
	fact = colstore.NewTable("fact", colstore.Schema{
		{Name: "custname", Type: colstore.String},
		{Name: "amount", Type: colstore.Int64},
	})
	rng := workload.NewRNG(99)
	for i := 0; i < nFact; i++ {
		// Drawn from a superset of dim's names: some fact rows dangle.
		must(t, fact.Writer().Row(names[rng.Intn(len(names))], int64(i)).Close())
	}
	dim = colstore.NewTable("dim", colstore.Schema{
		{Name: "name", Type: colstore.String},
		{Name: "score", Type: colstore.Int64},
	})
	for i := 0; i < nDim; i++ {
		must(t, dim.Writer().Row(names[i], int64(i*11)).Close())
	}
	if seal {
		must(t, fact.Seal())
		must(t, dim.Seal())
	}
	return fact, dim
}

// TestJoinDictKeys joins string keys whose dictionaries differ between
// the tables, over sealed and over unsealed storage: both return the map
// oracle's relation (strings compared decoded) and are DOP-invariant, and
// the sealed join — bit-packed code segments — streams strictly fewer
// DRAM bytes than the unsealed one, whose codes sit 8 bytes wide.
func TestJoinDictKeys(t *testing.T) {
	const nFact, nDim = 70_000, 600
	sealedFact, sealedDim := dictTables(t, nFact, nDim, true)
	rawFact, rawDim := dictTables(t, nFact, nDim, false)
	join := func(fact, dim *colstore.Table) *Join {
		return &Join{
			Left:    &Scan{Source: fact},
			Right:   &Scan{Source: dim},
			LeftKey: "custname", RightKey: "name",
		}
	}
	oracle := join(rawFact, rawDim)
	want, _ := runJoin(t, &mapJoin{Left: oracle.Left, Right: oracle.Right, LeftKey: "custname", RightKey: "name"}, 1)
	if want.N == 0 || want.N == nFact {
		t.Fatalf("degenerate join cardinality %d", want.N)
	}
	var bytes [2]uint64
	for i, tabs := range [][2]*colstore.Table{{rawFact, rawDim}, {sealedFact, sealedDim}} {
		rel, ctx := runJoin(t, join(tabs[0], tabs[1]), 4)
		if !rel.Equal(want) {
			t.Fatalf("sealed=%v: string-key join diverges from the map oracle", i == 1)
		}
		rel1, ctx1 := runJoin(t, join(tabs[0], tabs[1]), 1)
		if !reflect.DeepEqual(rel, rel1) || ctx.Meter.Snapshot() != ctx1.Meter.Snapshot() {
			t.Fatalf("sealed=%v: string-key join not DOP-invariant", i == 1)
		}
		bytes[i] = ctx.Meter.Snapshot().BytesReadDRAM
	}
	if bytes[1] >= bytes[0] {
		t.Fatalf("sealed join must stream fewer DRAM bytes: sealed %d vs unsealed %d", bytes[1], bytes[0])
	}
}

// TestMixedDictPlainKeys joins a sealed key column against an unsealed
// one.  There is one join: the build codes translate through the probe
// dictionary, and the fused probe streams codes as for any other key —
// returning the exact string-join relation, with the scan hidden or not.
func TestMixedDictPlainKeys(t *testing.T) {
	const nFact, nDim = 70_000, 600
	sealedFact, _ := dictTables(t, nFact, nDim, true)
	rawFact, rawDim := dictTables(t, nFact, nDim, false)

	mixed := func(hide bool) Node {
		var left Node = &Scan{Source: sealedFact}
		if hide {
			left = opaque(left)
		}
		return &Join{
			Left:    left,
			Right:   &Scan{Source: rawDim},
			LeftKey: "custname", RightKey: "name",
		}
	}
	baseline := &mapJoin{
		Left:    &Scan{Source: rawFact},
		Right:   &Scan{Source: rawDim},
		LeftKey: "custname", RightKey: "name",
	}
	baseRel, _ := runJoin(t, baseline, 1)
	for _, hide := range []bool{false, true} {
		mixedRel, ctx := runJoin(t, mixed(hide), 4)
		if !baseRel.Equal(mixedRel) {
			t.Fatalf("hide=%v: sealed/unsealed key join diverges from string join", hide)
		}
		var phases []string
		for _, op := range ctx.OpReports {
			phases = append(phases, op.Label)
		}
		got := strings.Join(phases, "\n")
		for _, ph := range []string{"[translate]", "[build]", "[gather]"} {
			if !strings.Contains(got, ph) {
				t.Fatalf("hide=%v: phase %s missing:\n%s", hide, ph, got)
			}
		}
		if fused := strings.Contains(got, "[fused probe]"); fused == hide {
			t.Fatalf("hide=%v: fused probe ran = %v:\n%s", hide, fused, got)
		}
	}
}

// TestJoinRenameCollisionProof covers the duplicate-column rename: the
// left side already carries both "name" and "r_name", so the right
// side's "name" must escape to "r_r_name" instead of silently colliding.
func TestJoinRenameCollisionProof(t *testing.T) {
	left := &Relation{N: 2, Cols: []Col{
		{Name: "k", Type: colstore.Int64, I: []int64{1, 2}},
		StringCol("name", []string{"l1", "l2"}),
		StringCol("r_name", []string{"x1", "x2"}),
	}}
	right := &Relation{N: 2, Cols: []Col{
		{Name: "k2", Type: colstore.Int64, I: []int64{1, 2}},
		StringCol("name", []string{"r1", "r2"}),
	}}
	rel, _ := runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "k", RightKey: "k2"}, 1)
	want := []string{"k", "name", "r_name", "r_r_name"}
	got := rel.ColNames()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join columns %v, want %v", got, want)
	}
	// The right join key (named differently from the left) is deduped,
	// and the renamed column still carries the right side's values.
	rr, _ := rel.Col("r_r_name")
	if rr.Str(0) != "r1" || rr.Str(1) != "r2" {
		t.Fatalf("renamed right column lost its values: %v", rel.Row(0))
	}
}

// TestJoinPhaseCharges asserts partition, build, probe, and gather are
// charged as separate operator reports with real byte movement — the
// E-report undercounting fix — and that a build side inside the cache
// target skips exactly the partition pass.
func TestJoinPhaseCharges(t *testing.T) {
	lkeys := synth.UniformInts(19, 80_000, 9_000)
	for name, nBuild := range map[string]int{"one-table": partTargetRows - 1, "partitioned": 9_000} {
		left, right := intRel("lk", lkeys), intRel("rk", synth.UniformInts(20, nBuild, 9_000))
		_, ctx := runJoin(t, &Join{Left: relNode{left}, Right: relNode{right}, LeftKey: "lk", RightKey: "rk"}, 2)
		phases := map[string]bool{}
		for _, op := range ctx.OpReports {
			for _, ph := range []string{"[partition]", "[build]", "[probe]", "[gather]"} {
				if strings.Contains(op.Label, ph) {
					phases[ph] = true
					if op.Work.BytesReadDRAM == 0 && op.Work.BytesWrittenDRAM == 0 {
						t.Errorf("%s: phase %s charged no DRAM movement", name, ph)
					}
				}
			}
		}
		for _, ph := range []string{"[build]", "[probe]", "[gather]"} {
			if !phases[ph] {
				t.Errorf("%s: phase %s missing from OpReports", name, ph)
			}
		}
		if phases["[partition]"] != (name == "partitioned") {
			t.Errorf("%s: partition pass ran = %v", name, phases["[partition]"])
		}
	}
}
