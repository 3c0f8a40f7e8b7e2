// Package lint is eimdb's project-specific static-analysis suite: it
// loads every package in the module with go/parser + go/types (standard
// library only — the CI build container has no network, so no
// golang.org/x/tools) and enforces the engine's determinism and
// energy-accounting invariants as machine-checked rules.
//
// The contracts it encodes grew one PR at a time and are otherwise only
// guarded by -race tests that catch violations after they ship:
//
//   - determinism: relations and attributed counters must be
//     byte-identical at every DOP, core budget, and batching setting, so
//     the deterministic packages must not read wall clocks, draw from the
//     global math/rand source, or let map iteration order leak into
//     output (PR 2/PR 5).
//   - meterdiscipline: energy and byte counters may only enter shared
//     accounting through the metered APIs — Ctx.Charge, Meter.Add,
//     FleetMeter — never by writing counter fields stored inside another
//     structure (PR 2).
//   - goroutines: internal/exec spawns workers only inside the
//     runPool/runMorsels helpers, so every worker honors revocable core
//     leases and morsel-boundary cancellation (PR 5).
//   - hotpath: the per-morsel join hot structs stay flat arrays, never Go
//     maps (PR 4).
//   - layering: internal/ outside experiments/ and lint/ is exactly what
//     cmd/eimdb-serve links — no served package imports an experiment
//     package, and no directory (not even one of tests alone) sits under
//     internal/ unserved.
//   - registrysync: the experiments registry, EXPERIMENTS.md, the root
//     benchmarks, and the committed BENCH_BASELINE.json must agree
//     (PR 1/PR 3).
//   - reach: every exported symbol a served internal/ package declares
//     is used by served code, cmd/, bench/ or examples/ — not only by an
//     experiment or a test — unless a //lint:allow reach: line names
//     who uses it.
//   - suppress: every //lint:allow escape hatch must name a real check
//     and carry a non-empty reason.
//
// cmd/eimdb-lint is the CLI front end; lint_test.go runs the whole suite
// over this repository inside tier-1 `go test ./...`.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diag is one diagnostic: a position, the check that fired, and a
// human-readable message.
type Diag struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Msg)
}

// Analyzer is one named rule over a loaded Unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit) []Diag
}

// Config scopes the rules to concrete packages, so fixture tests can
// point the same analyzers at testdata mini-packages.
type Config struct {
	// DetPkgs are the import paths under the determinism contract:
	// no wall-clock reads, no global math/rand, no order-dependent map
	// iteration.
	DetPkgs []string
	// ExecPkgs are the executor packages: `go` statements only inside
	// PoolFuncs, and at least one //lint:hotpath-marked struct must
	// exist (the flat-array contract cannot silently vanish).
	ExecPkgs []string
	// PoolFuncs are the only functions in ExecPkgs allowed to contain
	// `go` statements.
	PoolFuncs []string
	// HotStructs lists, per package, struct names that MUST carry the
	// //lint:hotpath marker: the fused/join kernel structs whose
	// flat-array (map-free) invariant the energy pricing depends on.
	// Unmarking, renaming, or deleting one without updating this roster
	// is a lint error, never a silent contract loss.
	HotStructs map[string][]string
	// EnergyPkg is the package defining Counters/Meter/FleetMeter; it
	// alone may write counter fields through stored structures.
	EnergyPkg string
	// ServeRoot is the serving binary's import path: its import closure
	// is the serving path, and internal/ outside experiments/ and lint/
	// must be exactly that (layering), with every exported symbol used
	// (reach).  Empty disables both rules.
	ServeRoot string
	// RegistryPkg is the experiments package whose register() calls are
	// the source of truth for E-ids; empty disables registrysync.
	RegistryPkg string
	// RootPkg is the module root package holding bench_test.go.
	RootPkg string
}

// DefaultConfig returns the scoping for this repository.
func DefaultConfig() Config {
	return Config{
		DetPkgs: []string{
			"repro/internal/exec",
			"repro/internal/sched",
			"repro/internal/core",
			"repro/internal/energy",
			"repro/internal/workload",
			"repro/internal/experiments",
			"repro/internal/txn",
			// The serving front end must be a pure function of its Clock:
			// wall time lives only in cmd/eimdb-serve's realClock.
			"repro/internal/server",
			// The writable delta + merge path: snapshot visibility and
			// compaction must replay identically (WAL recovery depends
			// on it).
			"repro/internal/colstore",
			"repro/internal/wal",
		},
		ExecPkgs:  []string{"repro/internal/exec"},
		PoolFuncs: []string{"runPool", "runMorsels"},
		HotStructs: map[string][]string{
			"repro/internal/exec": {"partChunk", "pairChunk", "joinTable", "groupTable", "morselScratch"},
			"repro/internal/num":  {"FloatSum"},
		},
		EnergyPkg:   "repro/internal/energy",
		ServeRoot:   "repro/cmd/eimdb-serve",
		RegistryPkg: "repro/internal/experiments",
		RootPkg:     "repro",
	}
}

// Unit is everything one lint run sees: the loaded packages, the module
// they came from, and the rule scoping.
type Unit struct {
	ModPath string
	Root    string // module root directory (for EXPERIMENTS.md, BENCH_BASELINE.json)
	Fset    *token.FileSet
	Pkgs    []*Package
	Config  Config
}

// Pkg returns the loaded package with the given import path, or nil.
func (u *Unit) Pkg(path string) *Package {
	for _, p := range u.Pkgs {
		if p.ImportPath == path && !p.TestVariant {
			return p
		}
	}
	return nil
}

// inDet reports whether the package is under the determinism contract.
func (u *Unit) inDet(p *Package) bool {
	for _, d := range u.Config.DetPkgs {
		if p.ImportPath == d {
			return true
		}
	}
	return false
}

// localType reports whether a package path belongs to the linted code —
// under the module, or one of the loaded (fixture) packages.  Foreign
// types (stdlib) are opaque to the layout checks.
func (u *Unit) localType(path string) bool {
	if path == u.ModPath || strings.HasPrefix(path, u.ModPath+"/") {
		return true
	}
	for _, p := range u.Pkgs {
		if p.ImportPath == path {
			return true
		}
	}
	return false
}

// inExec reports whether the package is an executor package.
func (u *Unit) inExec(p *Package) bool {
	for _, d := range u.Config.ExecPkgs {
		if p.ImportPath == d {
			return true
		}
	}
	return false
}

// All returns every analyzer in the suite, in report order.
func All() []Analyzer {
	return []Analyzer{
		AnalyzerDeterminism(),
		AnalyzerMeterDiscipline(),
		AnalyzerGoroutines(),
		AnalyzerHotPath(),
		AnalyzerLayering(),
		AnalyzerRegistrySync(),
		AnalyzerReach(),
		AnalyzerSuppress(),
	}
}

// checkNames returns the set of valid check names (the targets a
// //lint:allow directive may name).
func checkNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// Run executes every analyzer over the unit and returns the surviving
// diagnostics: a diagnostic is dropped when a well-formed //lint:allow
// directive for its check covers its line (same line, or the line the
// directive comment immediately precedes).  Malformed directives —
// empty reason, unknown check — surface as `suppress` diagnostics and
// suppress nothing.
func Run(u *Unit, analyzers []Analyzer) []Diag {
	sup := collectDirectives(u)
	var out []Diag
	for _, a := range analyzers {
		for _, d := range a.Run(u) {
			if a.Name != SuppressCheck && sup.allows(d) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	return out
}
