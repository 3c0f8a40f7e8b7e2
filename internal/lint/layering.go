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
//   - every non-test package under internal/ is on the serving path,
//     except internal/experiments/... and internal/lint: code that
//     nothing serves moves under its experiment, or is deleted.
//
// Experiment packages may import each other, and test files are not on
// the serving path: a serving package's test may import an experiment.
func AnalyzerLayering() Analyzer {
	return Analyzer{
		Name: LayeringCheck,
		Doc:  "internal/ outside experiments/ and lint/ is exactly what the serving root links",
		Run:  runLayering,
	}
}

func runLayering(u *Unit) []Diag {
	root := u.Config.ServeRoot
	if root == "" {
		return nil
	}
	internal := u.ModPath + "/internal/"
	inExperiments := func(path string) bool {
		return path == internal+"experiments" || strings.HasPrefix(path, internal+"experiments/")
	}
	base := make(map[string]*Package)
	for _, p := range u.Pkgs {
		if !p.TestVariant && !strings.HasSuffix(p.ImportPath, "_test") {
			base[p.ImportPath] = p
		}
	}

	var out []Diag
	served := make(map[string]bool)
	queue := []string{root}
	for len(queue) > 0 {
		p := base[queue[0]]
		queue = queue[1:]
		if p == nil || served[p.ImportPath] {
			continue // outside the module (the standard library), or seen
		}
		served[p.ImportPath] = true
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				dep, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if inExperiments(dep) && !inExperiments(p.ImportPath) {
					out = append(out, Diag{
						Pos:   u.Fset.Position(imp.Pos()),
						Check: LayeringCheck,
						Msg: fmt.Sprintf("%s is on %s's serving path and imports experiment package %s: "+
							"code an experiment alone needs lives beside that experiment", p.ImportPath, root, dep),
					})
				}
				queue = append(queue, dep)
			}
		}
	}

	for _, p := range u.Pkgs {
		path := p.ImportPath
		if base[path] != p || !strings.HasPrefix(path, internal) || served[path] ||
			inExperiments(path) || path == internal+"lint" {
			continue
		}
		out = append(out, Diag{
			Pos:   u.Fset.Position(p.Files[0].Package),
			Check: LayeringCheck,
			Msg: fmt.Sprintf("%s is under internal/ but %s does not link it: "+
				"move it under internal/experiments/<owner>/ or delete it", path, root),
		})
	}
	return out
}
