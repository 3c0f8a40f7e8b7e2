package lint

import (
	"fmt"
	"strconv"
	"strings"
)

// LayeringCheck is the name of the import-layering analyzer.
const LayeringCheck = "layering"

// AnalyzerLayering keeps internal/ equal to what the serving binary
// links.  The serving path is Config.ServeRoot's import closure — its
// non-test imports, followed through the module — and one rule holds
// over it:
//
//   - no package on the serving path imports a package under
//     internal/experiments/: code only an experiment needs lives beside
//     the experiment that owns it;
//   - every directory under internal/ holds a package on the serving
//     path, except internal/experiments/... and internal/lint: code that
//     nothing serves moves under its experiment, or is deleted, and so
//     do the tests of code that moved (a directory of test files alone
//     tests something that lives elsewhere);
//   - a test file of a package on the serving path imports no experiment
//     package but the generator leaf internal/experiments/synth: a test
//     that needs an experiment's code tests that code, and lives beside
//     it.
//
// Experiment packages may import each other.
func AnalyzerLayering() Analyzer {
	return Analyzer{
		Name: LayeringCheck,
		Doc:  "internal/ outside experiments/ and lint/ is exactly what the serving root links",
		Run:  runLayering,
	}
}

// basePkgs indexes the unit's importable (non-test) packages by path.
func basePkgs(u *Unit) map[string]*Package {
	base := make(map[string]*Package)
	for _, p := range u.Pkgs {
		if !p.TestVariant && !strings.HasSuffix(p.ImportPath, "_test") {
			base[p.ImportPath] = p
		}
	}
	return base
}

// servedClosure returns the serving path: the module packages
// Config.ServeRoot reaches through non-test imports, the root included.
func servedClosure(u *Unit, base map[string]*Package) map[string]bool {
	served := make(map[string]bool)
	queue := []string{u.Config.ServeRoot}
	for len(queue) > 0 {
		p := base[queue[0]]
		queue = queue[1:]
		if p == nil || served[p.ImportPath] {
			continue // outside the module (the standard library), or seen
		}
		served[p.ImportPath] = true
		for _, imp := range p.Types.Imports() {
			queue = append(queue, imp.Path())
		}
	}
	return served
}

// inExperiments reports whether path is internal/experiments or below.
func inExperiments(u *Unit, path string) bool {
	exp := u.ModPath + "/internal/experiments"
	return path == exp || strings.HasPrefix(path, exp+"/")
}

func runLayering(u *Unit) []Diag {
	root := u.Config.ServeRoot
	if root == "" {
		return nil
	}
	base := basePkgs(u)
	served := servedClosure(u, base)

	var out []Diag
	for path := range served {
		if inExperiments(u, path) {
			continue
		}
		for _, f := range base[path].Files {
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !inExperiments(u, dep) {
					continue
				}
				out = append(out, Diag{
					Pos:   u.Fset.Position(imp.Pos()),
					Check: LayeringCheck,
					Msg: fmt.Sprintf("%s is on %s's serving path and imports experiment package %s: "+
						"code an experiment alone needs lives beside that experiment", path, root, dep),
				})
			}
		}
	}

	// Test files of served packages: the in-package tests of a test
	// variant and the external _test package report on their own files.
	synth := u.ModPath + "/internal/experiments/synth"
	for _, p := range u.Pkgs {
		path := strings.TrimSuffix(p.ImportPath, "_test")
		if !p.TestVariant && path == p.ImportPath || !served[path] || inExperiments(u, path) {
			continue
		}
		for _, f := range p.Lint {
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !inExperiments(u, dep) || dep == synth {
					continue
				}
				out = append(out, Diag{
					Pos:   u.Fset.Position(imp.Pos()),
					Check: LayeringCheck,
					Msg: fmt.Sprintf("a test of served package %s imports experiment package %s: "+
						"a test of an experiment's code lives beside that experiment", path, dep),
				})
			}
		}
	}

	// One finding per unserved directory, at the first package loaded
	// from it, whether it holds code or tests alone.
	internal := u.ModPath + "/internal/"
	seen := make(map[string]bool)
	for _, p := range u.Pkgs {
		path := strings.TrimSuffix(p.ImportPath, "_test")
		if !strings.HasPrefix(path, internal) || served[path] || inExperiments(u, path) ||
			path == internal+"lint" || seen[path] {
			continue
		}
		seen[path] = true
		out = append(out, Diag{
			Pos:   u.Fset.Position(p.Files[0].Package),
			Check: LayeringCheck,
			Msg: fmt.Sprintf("%s is under internal/ but %s does not link it (tests alone test code that lives "+
				"elsewhere): move it under internal/experiments/<owner>/ or delete it", path, root),
		})
	}
	return out
}
