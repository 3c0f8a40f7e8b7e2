package lint

// The fixture tests load the mini-packages under testdata, point one
// analyzer at each via a fixture-scoped Config, and assert the exact
// diagnostics (file:line check).  Expected lines are anchored to source
// text, not hard-coded numbers, so editing a fixture comment cannot
// silently skew an assertion.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

// testLoader shares one Loader across every test in the package: each
// NewLoader re-typechecks the standard library from source (~1s), and
// the base-package cache makes later fixture loads nearly free.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

// loadFixture loads testdata/src/<name> as import path fixture/<name>.
func loadFixture(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	l := testLoader(t)
	p, err := l.LoadFixture(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return l, p
}

// fixtureUnit builds a Unit over the given packages with a
// fixture-scoped config.
func fixtureUnit(l *Loader, cfg Config, pkgs ...*Package) *Unit {
	return &Unit{ModPath: l.ModPath, Root: l.Root, Fset: l.Fset, Pkgs: pkgs, Config: cfg}
}

// lineMatching returns the 1-based line number of the first line of
// file matching the regexp, failing the test when none does.
func lineMatching(t *testing.T, file, pattern string) int {
	t.Helper()
	re := regexp.MustCompile(pattern)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("reading %s: %v", file, err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if re.MatchString(line) {
			return i + 1
		}
	}
	t.Fatalf("%s: no line matches %q", file, pattern)
	return 0
}

// keyOf compresses a diagnostic to "basename:line check" for comparison.
func keyOf(d Diag) string {
	return fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check)
}

// assertDiags compares got against want as multisets of keyOf strings.
func assertDiags(t *testing.T, got []Diag, want []string) {
	t.Helper()
	gotKeys := make([]string, len(got))
	for i, d := range got {
		gotKeys[i] = keyOf(d)
	}
	sort.Strings(gotKeys)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(gotKeys, "\n") != strings.Join(want, "\n") {
		var full []string
		for _, d := range got {
			full = append(full, d.String())
		}
		t.Errorf("diagnostics mismatch\n got: %v\nwant: %v\nfull:\n%s",
			gotKeys, want, strings.Join(full, "\n"))
	}
}

func TestDeterminismFiresOnViolations(t *testing.T) {
	l, p := loadFixture(t, "determinism_bad")
	u := fixtureUnit(l, Config{DetPkgs: []string{p.ImportPath}}, p)
	file := filepath.Join(p.Dir, "det.go")
	want := []string{
		fmt.Sprintf("det.go:%d determinism", lineMatching(t, file, `time\.Now\(\)`)),
		fmt.Sprintf("det.go:%d determinism", lineMatching(t, file, `time\.Since\(start\)`)),
		fmt.Sprintf("det.go:%d determinism", lineMatching(t, file, `rand\.Intn\(10\)`)),
		fmt.Sprintf("det.go:%d determinism", lineMatching(t, file, `for k := range m`)),
		fmt.Sprintf("det.go:%d determinism", lineMatching(t, file, `for _, v := range m`)),
		fmt.Sprintf("det.go:%d determinism", lineMatching(t, file, `for k, v := range m`)),
	}
	assertDiags(t, AnalyzerDeterminism().Run(u), want)
}

func TestDeterminismSilentOnCorrectedForms(t *testing.T) {
	l, p := loadFixture(t, "determinism_good")
	u := fixtureUnit(l, Config{DetPkgs: []string{p.ImportPath}}, p)
	assertDiags(t, AnalyzerDeterminism().Run(u), nil)
}

func TestDeterminismIgnoresUnscopedPackages(t *testing.T) {
	l, p := loadFixture(t, "determinism_bad")
	u := fixtureUnit(l, Config{DetPkgs: []string{"fixture/somewhere_else"}}, p)
	assertDiags(t, AnalyzerDeterminism().Run(u), nil)
}

func TestMeterDisciplineFiresOnSharedWrites(t *testing.T) {
	l, p := loadFixture(t, "meter_bad")
	u := fixtureUnit(l, Config{EnergyPkg: "repro/internal/energy"}, p)
	file := filepath.Join(p.Dir, "meter.go")
	want := []string{
		fmt.Sprintf("meter.go:%d meterdiscipline", lineMatching(t, file, `r\.work\.TuplesIn`)),
		fmt.Sprintf("meter.go:%d meterdiscipline", lineMatching(t, file, `parts\[0\]\.BytesReadDRAM`)),
		fmt.Sprintf("meter.go:%d meterdiscipline", lineMatching(t, file, `global\.Instructions`)),
		fmt.Sprintf("meter.go:%d meterdiscipline", lineMatching(t, file, `&global\.BytesWrittenDRAM`)),
	}
	assertDiags(t, AnalyzerMeterDiscipline().Run(u), want)
}

func TestMeterDisciplineSilentOnLocalCounters(t *testing.T) {
	l, p := loadFixture(t, "meter_good")
	u := fixtureUnit(l, Config{EnergyPkg: "repro/internal/energy"}, p)
	assertDiags(t, AnalyzerMeterDiscipline().Run(u), nil)
}

func TestGoroutinesOnlyInPoolFuncs(t *testing.T) {
	l, p := loadFixture(t, "gopool")
	u := fixtureUnit(l, Config{
		ExecPkgs:  []string{p.ImportPath},
		PoolFuncs: []string{"runPool", "runMorsels"},
	}, p)
	file := filepath.Join(p.Dir, "pool.go")
	want := []string{
		fmt.Sprintf("pool.go:%d goroutines", lineMatching(t, file, `rogue goroutine`)),
		fmt.Sprintf("pool.go:%d goroutines", lineMatching(t, file, `still inside Indirect`)),
	}
	assertDiags(t, AnalyzerGoroutines().Run(u), want)
}

// loadTree loads the given directories of testdata/<tree>, tests
// included, as a module of its own: a Unit whose ModPath is the tree's
// import path and whose serving root is its cmd/serve.
func loadTree(t *testing.T, tree string, rels ...string) *Unit {
	t.Helper()
	l := testLoader(t)
	mod := l.ModPath + "/internal/lint/testdata/" + tree
	var pkgs []*Package
	for _, rel := range rels {
		ps, err := l.loadDir(filepath.Join(l.Root, "internal", "lint", "testdata", tree, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", rel, err)
		}
		pkgs = append(pkgs, ps...)
	}
	u := fixtureUnit(l, Config{ServeRoot: mod + "/cmd/serve"}, pkgs...)
	u.ModPath = mod
	return u
}

// TestLayeringFiresOnSeedImport loads testdata/layering as a module of
// its own — a serving root, two served packages with a test each, an
// orphan, a directory of tests alone and three experiment packages — and
// expects exactly four findings: the served package importing
// internal/experiments/x, its test importing internal/experiments/y, the
// internal/ package the root does not reach, and the test-only
// directory.  x importing y is clean, and so is the other served
// package's test drawing from the generator leaf synth.
func TestLayeringFiresOnSeedImport(t *testing.T) {
	u := loadTree(t, "layering", "cmd/serve", "internal/served", "internal/leaky", "internal/orphan",
		"internal/testonly", "internal/experiments/x", "internal/experiments/y", "internal/experiments/synth")
	dir := filepath.Join("testdata", "layering", "internal")
	want := []string{
		fmt.Sprintf("leaky.go:%d layering", lineMatching(t, filepath.Join(dir, "leaky", "leaky.go"), `experiments/x"`)),
		fmt.Sprintf("leaky_test.go:%d layering", lineMatching(t, filepath.Join(dir, "leaky", "leaky_test.go"), `experiments/y"`)),
		fmt.Sprintf("orphan.go:%d layering", lineMatching(t, filepath.Join(dir, "orphan", "orphan.go"), `^package orphan`)),
		fmt.Sprintf("testonly_test.go:%d layering", lineMatching(t, filepath.Join(dir, "testonly", "testonly_test.go"), `^package testonly_test`)),
	}
	assertDiags(t, AnalyzerLayering().Run(u), want)

	// With no serving root the rule has nothing to measure against.
	u.Config.ServeRoot = ""
	assertDiags(t, AnalyzerLayering().Run(u), nil)
}

// TestReachFiresOnUnusedServedSymbols loads testdata/reach — a serving
// root, a served package with a test file, an experiment, another
// command, a benchmark harness and an example — and expects a finding
// exactly where the only use is a test, an experiment or the symbol's
// own body, or where no use exists at all; an allow line with a reason
// suppresses, one without suppresses nothing.
func TestReachFiresOnUnusedServedSymbols(t *testing.T) {
	u := loadTree(t, "reach", "cmd/serve", "cmd/tool", "bench", "examples/demo",
		"internal/served", "internal/experiments/x")
	file := filepath.Join("testdata", "reach", "internal", "served", "served.go")
	at := func(check, pattern string) string {
		return fmt.Sprintf("served.go:%d %s", lineMatching(t, file, pattern), check)
	}
	want := []string{
		at(ReachCheck, `^func OnlyTests\(`),
		at(ReachCheck, `^func OnlyExperiment\(`),
		at(ReachCheck, `^func Recursive\(`),
		at(ReachCheck, `^func EmptyReason\(`),
		at(SuppressCheck, `^//lint:allow reach:$`),
		at(ReachCheck, `^\tPerimeter\(\) int`),
		at(ReachCheck, `^func \(s \*Square\) Perimeter\(`),
		at(ReachCheck, `^func \(Orphan\) Name\(`),
		at(ReachCheck, `^type Orphan struct`),
	}
	assertDiags(t, Run(u, []Analyzer{AnalyzerReach(), AnalyzerSuppress()}), want)

	// With no serving root the rule has nothing to measure against.
	u.Config.ServeRoot = ""
	assertDiags(t, AnalyzerReach().Run(u), nil)
}

func TestHotPathFiresOnMaps(t *testing.T) {
	l, p := loadFixture(t, "hotpath_bad")
	u := fixtureUnit(l, Config{ExecPkgs: []string{p.ImportPath}}, p)
	file := filepath.Join(p.Dir, "hot.go")
	want := []string{
		fmt.Sprintf("hot.go:%d hotpath", lineMatching(t, file, `type table struct`)),
		fmt.Sprintf("hot.go:%d hotpath", lineMatching(t, file, `type nested struct`)),
		fmt.Sprintf("hot.go:%d hotpath", lineMatching(t, file, `type count int`)),
	}
	got := AnalyzerHotPath().Run(u)
	assertDiags(t, got, want)
	// The transitive walk must name the path through the slice.
	for _, d := range got {
		if strings.Contains(d.Msg, "nested") && !strings.Contains(d.Msg, "parts.[].lookup") {
			t.Errorf("nested diagnostic should name the field path, got: %s", d.Msg)
		}
	}
}

func TestHotPathSilentOnFlatStructs(t *testing.T) {
	l, p := loadFixture(t, "hotpath_good")
	u := fixtureUnit(l, Config{ExecPkgs: []string{p.ImportPath}}, p)
	assertDiags(t, AnalyzerHotPath().Run(u), nil)
}

func TestHotPathRequiresMarkedStruct(t *testing.T) {
	l, p := loadFixture(t, "hotpath_missing")
	u := fixtureUnit(l, Config{ExecPkgs: []string{p.ImportPath}}, p)
	file := filepath.Join(p.Dir, "cold.go")
	want := []string{
		fmt.Sprintf("cold.go:%d hotpath", lineMatching(t, file, `package hotpath_missing`)),
	}
	assertDiags(t, AnalyzerHotPath().Run(u), want)
}

// loadRegistryFixture loads testdata/<name>/src as the registry package
// and roots the unit at testdata/<name>, where the fixture's
// EXPERIMENTS.md and BENCH_BASELINE.json live.
func loadRegistryFixture(t *testing.T, name string) *Unit {
	t.Helper()
	l := testLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	p, err := l.LoadFixture(filepath.Join(dir, "src"), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	u := fixtureUnit(l, Config{RegistryPkg: p.ImportPath}, p)
	u.Root = dir
	return u
}

func TestRegistrySyncFiresOnDrift(t *testing.T) {
	u := loadRegistryFixture(t, "registry_bad")
	regGo := filepath.Join(u.Root, "src", "reg.go")
	md := filepath.Join(u.Root, "EXPERIMENTS.md")
	e1Row := lineMatching(t, md, `^\|\s*E1\s*\|`)
	e3Row := lineMatching(t, md, `^\|\s*E3\s*\|`)
	want := []string{
		// E2 registered but undocumented: anchored at the ID literal.
		fmt.Sprintf("reg.go:%d registrysync", lineMatching(t, regGo, `ID: "E2"`)),
		// E1's row names a test prefix no test carries.
		fmt.Sprintf("EXPERIMENTS.md:%d registrysync", e1Row),
		// E3 documented but unregistered, and its row names a ghost test
		// and a ghost benchmark: three diagnostics on the same table row.
		fmt.Sprintf("EXPERIMENTS.md:%d registrysync", e3Row),
		fmt.Sprintf("EXPERIMENTS.md:%d registrysync", e3Row),
		fmt.Sprintf("EXPERIMENTS.md:%d registrysync", e3Row),
		// The stale baseline gates a vanished benchmark and an
		// unreported custom metric key.
		"BENCH_BASELINE.json:1 registrysync",
		"BENCH_BASELINE.json:1 registrysync",
	}
	got := AnalyzerRegistrySync().Run(u)
	assertDiags(t, got, want)
	for _, frag := range []string{"E2", "E3", "TestZed*", "TestGhost", "BenchmarkNope", "BenchmarkGone", `"zap/op"`} {
		found := false
		for _, d := range got {
			if strings.Contains(d.Msg, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic mentions %s", frag)
		}
	}
}

func TestRegistrySyncSilentWhenInAgreement(t *testing.T) {
	u := loadRegistryFixture(t, "registry_good")
	assertDiags(t, AnalyzerRegistrySync().Run(u), nil)
}

func TestSuppressionDirectives(t *testing.T) {
	l, p := loadFixture(t, "suppressed")
	u := fixtureUnit(l, Config{DetPkgs: []string{p.ImportPath}}, p)
	file := filepath.Join(p.Dir, "sup.go")
	// A reasoned directive suppresses (trailing or on the line above);
	// an empty reason, an unknown check, or no check at all leaves the
	// violation standing AND flags the directive itself.
	noReason := lineMatching(t, file, `lint:allow determinism:$`)
	wrongCheck := lineMatching(t, file, `nosuchcheck`)
	noCheck := lineMatching(t, file, `lint:allow$`)
	want := []string{
		fmt.Sprintf("sup.go:%d determinism", noReason),
		fmt.Sprintf("sup.go:%d suppress", noReason),
		fmt.Sprintf("sup.go:%d determinism", wrongCheck),
		fmt.Sprintf("sup.go:%d suppress", wrongCheck),
		fmt.Sprintf("sup.go:%d determinism", noCheck),
		fmt.Sprintf("sup.go:%d suppress", noCheck),
	}
	got := Run(u, All())
	assertDiags(t, got, want)
	// The two reasoned directives must have suppressed their time.Now
	// lines: no diagnostic outside the three rejected-directive lines.
	for _, d := range got {
		if d.Pos.Line != noReason && d.Pos.Line != wrongCheck && d.Pos.Line != noCheck {
			t.Errorf("diagnostic escaped suppression: %s", d)
		}
	}
}

func TestParseDirective(t *testing.T) {
	known := map[string]bool{"determinism": true}
	cases := []struct {
		text        string
		isDirective bool
		valid       bool
		check       string
	}{
		{"//lint:allow determinism: wall-clock display only", true, true, "determinism"},
		{"//lint:allow determinism:", true, false, "determinism"},
		{"//lint:allow determinism", true, false, "determinism"},
		{"//lint:allow nosuchcheck: because", true, false, "nosuchcheck"},
		{"//lint:allow", true, false, ""},
		{"//lint:allowance is not a directive", false, false, ""},
		{"//lint:hotpath", false, false, ""},
		{"// ordinary comment", false, false, ""},
	}
	for _, c := range cases {
		d, ok := parseDirective(c.text, known)
		if ok != c.isDirective || (ok && (d.valid != c.valid || d.check != c.check)) {
			t.Errorf("parseDirective(%q) = %+v, %v; want directive=%v valid=%v check=%q",
				c.text, d, ok, c.isDirective, c.valid, c.check)
		}
	}
}
