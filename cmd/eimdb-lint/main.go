// Command eimdb-lint runs the project's static-analysis suite
// (internal/lint) over the module: standard-library-only analyzers that
// enforce the engine's determinism and energy-accounting invariants —
// no wall clocks or global math/rand in the deterministic packages, no
// map-iteration order leaking into results, counters mutated only
// through the metered APIs, executor goroutines only inside the
// lease-honoring pool helpers, flat-array hot structs, engine packages
// that never import the experiment-only seed packages, and an
// experiments registry that agrees with EXPERIMENTS.md and the
// committed bench baselines.
//
// Usage:
//
//	eimdb-lint [./...]          lint the whole module (the default)
//	eimdb-lint ./internal/exec  lint one package subtree
//	eimdb-lint -list            print the analyzers and exit
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on a
// load or type-check failure.  Suppress a diagnostic in place with
// `//lint:allow <check>: <reason>` — the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	root := flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			fail(err)
		}
		dir, err = lint.FindModuleRoot(wd)
		if err != nil {
			fail(err)
		}
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		fail(err)
	}
	unit, err := loader.LoadModule(lint.DefaultConfig())
	if err != nil {
		fail(err)
	}

	diags := lint.Run(unit, lint.All())
	diags = filterPatterns(diags, flag.Args(), dir)
	for _, d := range diags {
		fmt.Println(relativize(d, dir))
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "eimdb-lint: %d issue(s)\n", n)
		os.Exit(1)
	}
}

// filterPatterns narrows diagnostics to the requested package patterns.
// "./..." (or no pattern) keeps everything; "./internal/exec" keeps the
// subtree rooted there.
func filterPatterns(diags []lint.Diag, patterns []string, root string) []lint.Diag {
	var prefixes []string
	for _, p := range patterns {
		p = strings.TrimSuffix(p, "/...")
		if p == "." || p == "./" || p == "" {
			return diags
		}
		prefixes = append(prefixes, filepath.Clean(filepath.Join(root, p)))
	}
	if len(prefixes) == 0 {
		return diags
	}
	var out []lint.Diag
	for _, d := range diags {
		for _, pre := range prefixes {
			if d.Pos.Filename == pre || strings.HasPrefix(d.Pos.Filename, pre+string(filepath.Separator)) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// relativize prints a diagnostic with a root-relative path.
func relativize(d lint.Diag, root string) string {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "eimdb-lint:", err)
	os.Exit(2)
}
