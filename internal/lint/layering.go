package lint

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// LayeringCheck is the name of the import-layering analyzer.
const LayeringCheck = "layering"

// AnalyzerLayering keeps the engine's import graph showing only what
// serves queries: the engine packages (Config.EnginePkgs) must never
// import the experiment-only seed packages (Config.SeedPkgs) — models an
// experiment or example wires up by itself.  A seed package the engine
// really needs is first promoted out of SeedPkgs, in the open, not
// pulled in by one import line.  Test files count: an engine test that
// needs a seed package belongs beside the experiment that owns it.
func AnalyzerLayering() Analyzer {
	return Analyzer{
		Name: LayeringCheck,
		Doc:  "engine packages never import the experiment-only seed packages",
		Run:  runLayering,
	}
}

func runLayering(u *Unit) []Diag {
	seed := make(map[string]bool, len(u.Config.SeedPkgs))
	for _, s := range u.Config.SeedPkgs {
		seed[s] = true
	}
	inEngine := func(p *Package) bool {
		path := strings.TrimSuffix(p.ImportPath, "_test") // external test packages too
		for _, e := range u.Config.EnginePkgs {
			if path == e {
				return true
			}
		}
		return false
	}
	var out []Diag
	walkFiles(u, inEngine, func(p *Package, f *ast.File) {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !seed[path] {
				continue
			}
			out = append(out, Diag{
				Pos:   u.Fset.Position(imp.Pos()),
				Check: LayeringCheck,
				Msg: fmt.Sprintf("engine package %s imports experiment-only seed package %s: "+
					"the engine's import graph must show only what serves queries", p.ImportPath, path),
			})
		}
	})
	return out
}
