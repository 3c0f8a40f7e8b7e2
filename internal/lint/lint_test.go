package lint

// TestRepoSatisfiesInvariants is the suite's own tier-1 gate: it loads
// every package in this repository and runs every analyzer, so `go
// test ./...` fails the moment a determinism or energy-accounting
// invariant regresses — the same run `cmd/eimdb-lint ./...` performs in
// the CI lint job.

import "testing"

func TestRepoSatisfiesInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped under -short")
	}
	l := testLoader(t)
	u, err := l.LoadModule(DefaultConfig())
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(u, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d lint issue(s); run `go run ./cmd/eimdb-lint ./...` locally", len(diags))
	}
}

func TestDefaultConfigPackagesExist(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped under -short")
	}
	l := testLoader(t)
	u, err := l.LoadModule(DefaultConfig())
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	// A renamed package must not silently fall out of the contract's
	// scope: every configured path has to resolve to a loaded package.
	var paths []string
	paths = append(paths, u.Config.DetPkgs...)
	paths = append(paths, u.Config.ExecPkgs...)
	paths = append(paths, u.Config.EnergyPkg, u.Config.ServeRoot, u.Config.RegistryPkg, u.Config.RootPkg)
	for _, path := range paths {
		if u.Pkg(path) == nil {
			t.Errorf("config names package %s but the module does not contain it", path)
		}
	}
}
