package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// RegistryCheck is the name of the registry-sync analyzer.
const RegistryCheck = "registrysync"

// AnalyzerRegistrySync keeps the four places an experiment lives in
// agreement: the registry (register(Experiment{ID: ...}) calls in
// Config.RegistryPkg), the EXPERIMENTS.md claim table, the Benchmark*
// functions the table references, and the committed BENCH_BASELINE.json
// the CI energy gate diffs against.
//
// Checks:
//
//   - every registered E-id has an EXPERIMENTS.md row, and every row
//     names a registered experiment (bidirectional — drift in either
//     direction fails);
//   - every `Benchmark<Name>` and `Test<Name>` mentioned in
//     EXPERIMENTS.md exists as a function somewhere in the module; a
//     trailing `*` (`TestMQ*`) names a prefix at least one must carry;
//   - every benchmark in the committed BENCH_BASELINE.json still
//     exists in code, and every custom metric key it gates (J/op,
//     bytes-touched/op, ... — anything beyond the standard ns/op,
//     B/op, allocs/op, MB/s) is actually reported by a
//     b.ReportMetric call somewhere in the module.
func AnalyzerRegistrySync() Analyzer {
	return Analyzer{
		Name: RegistryCheck,
		Doc:  "experiments registry, EXPERIMENTS.md, Benchmark/Test funcs, and BENCH_BASELINE.json must agree",
		Run:  runRegistrySync,
	}
}

var (
	mdRowRe   = regexp.MustCompile(`^\|\s*(E\d+)\s*\|`)
	funcRefRe = regexp.MustCompile(`\b(?:Benchmark|Test)[A-Z0-9_][A-Za-z0-9_]*\*?`)
)

// baselineFile is the one committed modeled baseline the CI energy gate
// diffs against.
const baselineFile = "BENCH_BASELINE.json"

// stdMetrics are go-bench metrics every benchmark emits; anything else
// in a baseline is a custom metric some ReportMetric call must produce.
var stdMetrics = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true, "MB/s": true}

func runRegistrySync(u *Unit) []Diag {
	if u.Config.RegistryPkg == "" {
		return nil
	}
	var out []Diag

	// 1. Registered experiment IDs, from register(Experiment{ID: "E..."}).
	registered := make(map[string]token.Position)
	if p := u.Pkg(u.Config.RegistryPkg); p != nil {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "register" {
					return true
				}
				if len(call.Args) != 1 {
					return true
				}
				lit, ok := call.Args[0].(*ast.CompositeLit)
				if !ok {
					return true
				}
				for _, el := range lit.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if k, ok := kv.Key.(*ast.Ident); !ok || k.Name != "ID" {
						continue
					}
					if bl, ok := kv.Value.(*ast.BasicLit); ok {
						if id, err := strconv.Unquote(bl.Value); err == nil {
							registered[id] = u.Fset.Position(bl.Pos())
						}
					}
				}
				return true
			})
		}
	}

	// 2. EXPERIMENTS.md rows and the benchmark and test names it
	// references.
	mdPath := filepath.Join(u.Root, "EXPERIMENTS.md")
	mdRows := make(map[string]token.Position)
	type funcRef struct {
		name string
		pos  token.Position
	}
	var funcRefs []funcRef
	if data, err := os.ReadFile(mdPath); err == nil {
		for i, line := range strings.Split(string(data), "\n") {
			pos := token.Position{Filename: mdPath, Line: i + 1, Column: 1}
			if m := mdRowRe.FindStringSubmatch(line); m != nil {
				mdRows[m[1]] = pos
			}
			for _, f := range funcRefRe.FindAllString(line, -1) {
				funcRefs = append(funcRefs, funcRef{f, pos})
			}
		}
	} else {
		out = append(out, Diag{
			Pos:   token.Position{Filename: mdPath, Line: 1, Column: 1},
			Check: RegistryCheck,
			Msg:   "EXPERIMENTS.md is missing but the experiments registry is populated",
		})
	}

	for _, id := range sortedKeys(registered) {
		if _, ok := mdRows[id]; !ok {
			out = append(out, Diag{Pos: registered[id], Check: RegistryCheck,
				Msg: fmt.Sprintf("experiment %s is registered in code but has no EXPERIMENTS.md row", id)})
		}
	}
	for _, id := range sortedKeys(mdRows) {
		if _, ok := registered[id]; !ok {
			out = append(out, Diag{Pos: mdRows[id], Check: RegistryCheck,
				Msg: fmt.Sprintf("EXPERIMENTS.md lists %s but no register(Experiment{ID: %q}) exists in %s",
					id, id, u.Config.RegistryPkg)})
		}
	}

	// 3. Benchmark and test functions and ReportMetric keys declared
	// anywhere in the module (benchmarks live in the root package's test
	// files).
	benchFuncs := make(map[string]bool)
	var testFuncs []string
	metricKeys := make(map[string]bool)
	for _, p := range u.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Benchmark") {
					benchFuncs[fd.Name.Name] = true
				} else if ok && strings.HasPrefix(fd.Name.Name, "Test") {
					testFuncs = append(testFuncs, fd.Name.Name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "ReportMetric" {
					return true
				}
				if bl, ok := call.Args[1].(*ast.BasicLit); ok {
					if key, err := strconv.Unquote(bl.Value); err == nil {
						metricKeys[key] = true
					}
				}
				return true
			})
		}
	}
	for _, ref := range funcRefs {
		kind, ok := "test", hasTest(testFuncs, ref.name)
		if strings.HasPrefix(ref.name, "Benchmark") {
			kind, ok = "benchmark", benchFuncs[ref.name]
		}
		if !ok {
			out = append(out, Diag{Pos: ref.pos, Check: RegistryCheck,
				Msg: fmt.Sprintf("EXPERIMENTS.md references %s but no such %s function exists", ref.name, kind)})
		}
	}

	// 4. The committed baseline must gate benchmarks and metric keys
	// that still exist.
	base := filepath.Join(u.Root, baselineFile)
	if _, err := os.Stat(base); err == nil {
		pos := token.Position{Filename: base, Line: 1, Column: 1}
		out = append(out, checkBaseline(base, pos, benchFuncs, metricKeys)...)
	}
	return out
}

// hasTest reports whether a test function matches ref: by name, or by
// prefix when ref ends in '*'.
func hasTest(tests []string, ref string) bool {
	prefix, wild := strings.CutSuffix(ref, "*")
	for _, t := range tests {
		if t == ref || wild && strings.HasPrefix(t, prefix) {
			return true
		}
	}
	return false
}

// checkBaseline verifies one bench-trajectory JSON against the declared
// benchmark functions and reported metric keys.
func checkBaseline(path string, pos token.Position, benchFuncs, metricKeys map[string]bool) []Diag {
	var out []Diag
	data, err := os.ReadFile(path)
	if err != nil {
		return []Diag{{Pos: pos, Check: RegistryCheck, Msg: "cannot read baseline: " + err.Error()}}
	}
	var doc struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return []Diag{{Pos: pos, Check: RegistryCheck, Msg: "baseline is not valid bench-trajectory JSON: " + err.Error()}}
	}
	missing := make(map[string]bool)
	staleKeys := make(map[string]bool)
	for _, b := range doc.Benchmarks {
		base := benchBaseName(b.Name)
		if !benchFuncs[base] && !missing[base] {
			missing[base] = true
			out = append(out, Diag{Pos: pos, Check: RegistryCheck,
				Msg: fmt.Sprintf("baseline %s gates %s but no such benchmark function exists (stale baseline?)",
					filepath.Base(path), base)})
		}
		for key := range b.Metrics {
			if key == "iterations" || stdMetrics[key] || metricKeys[key] || staleKeys[key] {
				continue
			}
			staleKeys[key] = true
			out = append(out, Diag{Pos: pos, Check: RegistryCheck,
				Msg: fmt.Sprintf("baseline %s gates custom metric %q but no b.ReportMetric call emits it",
					filepath.Base(path), key)})
		}
	}
	return out
}

// benchBaseName strips sub-benchmark segments and the trailing
// -GOMAXPROCS suffix: "BenchmarkX/sub/case-2" -> "BenchmarkX".
func benchBaseName(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// sortedKeys returns the map's keys in a stable E-number-aware order.
func sortedKeys(m map[string]token.Position) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(keys[i], "E%d", &a)
		fmt.Sscanf(keys[j], "E%d", &b)
		if a != b {
			return a < b
		}
		return keys[i] < keys[j]
	})
	return keys
}
