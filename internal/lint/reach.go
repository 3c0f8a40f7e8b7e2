package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// ReachCheck is the name of the served-symbol reachability analyzer.
const ReachCheck = "reach"

// AnalyzerReach keeps the serving packages down to what is used.  It
// checks every exported package-level object, and every exported method
// of an exported type (interface methods included), that a non-test file
// declares in an internal/ package on Config.ServeRoot's closure.  Each
// needs a use outside its own declaration (for a type: its spec and its
// methods) in user code: a non-test file of the closure, cmd/, bench/ or
// examples/.  Experiments and tests are not users: a symbol only they
// name moves beside its experiment, becomes test-only in its package's
// export_test.go, or is deleted.
//
// A use is an identifier resolving to the object (types.Info.Uses), or
// for a type a field or method selected on it (types.Info.Selections).
// A concrete method is also used when it implements a method of an
// interface user code calls through: a local interface method some user
// names, or any interface of a standard-library package a user imports
// (fmt.Stringer, http.Handler, ...) and the universe's error.
func AnalyzerReach() Analyzer {
	return Analyzer{
		Name: ReachCheck,
		Doc:  "every exported served symbol has a use in served code, cmd/, bench/ or examples/",
		Run:  runReach,
	}
}

// span is a half-open source range.
type span struct{ lo, hi token.Pos }

func runReach(u *Unit) []Diag {
	if u.Config.ServeRoot == "" {
		return nil
	}
	base := basePkgs(u)
	served := servedClosure(u, base)

	// The candidates, each with the ranges of its own declaration.
	own := make(map[types.Object][]span)
	var cands []types.Object
	add := func(obj types.Object, node ast.Node) {
		if obj == nil || !obj.Exported() {
			return
		}
		if !slices.Contains(cands, obj) {
			cands = append(cands, obj)
		}
		own[obj] = append(own[obj], span{node.Pos(), node.End()})
	}
	for path := range served {
		if !strings.HasPrefix(path, u.ModPath+"/internal/") {
			continue
		}
		p := base[path]
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn, _ := p.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue // init, or a blank name
					}
					if tn := recvNamed(fn); d.Recv == nil {
						add(fn, d)
					} else if tn != nil && tn.Exported() {
						add(fn, d)
						own[tn] = append(own[tn], span{d.Pos(), d.End()}) // a type's methods are its declaration
					}
					continue
				}
				for _, spec := range decl.(*ast.GenDecl).Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(p.Info.Defs[s.Name], s)
						if it, ok := s.Type.(*ast.InterfaceType); ok && s.Name.IsExported() {
							for _, m := range it.Methods.List {
								for _, name := range m.Names {
									add(p.Info.Defs[name], m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(p.Info.Defs[name], s)
						}
					}
				}
			}
		}
	}

	// Walk user code once: mark each use outside the used object's own
	// declaration, and collect the interface methods user code calls
	// through (every method of error and of the standard library's
	// interfaces, whose callers are outside the module).
	used := make(map[types.Object]bool)
	calls := make(map[string][]*types.Interface) // method name -> interfaces
	call := func(t types.Type, name string) {
		it := t.Underlying().(*types.Interface)
		if !slices.Contains(calls[name], it) {
			calls[name] = append(calls[name], it)
		}
	}
	callAll := func(t types.Type) {
		for m := range t.Underlying().(*types.Interface).Methods() {
			call(t, m.Name())
		}
	}
	callAll(types.Universe.Lookup("error").Type())
	mark := func(obj types.Object, pos token.Pos) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		for _, s := range own[obj] {
			if s.lo <= pos && pos < s.hi {
				return
			}
		}
		if own[obj] != nil {
			used[obj] = true
		}
	}
	std := make(map[*types.Package]bool)
	for _, p := range u.Pkgs {
		if !isUser(u, p, served) {
			continue
		}
		for id, obj := range p.Info.Uses {
			mark(obj, id.Pos())
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil && types.IsInterface(fn.Signature().Recv().Type()) {
				call(fn.Signature().Recv().Type(), fn.Name())
			}
		}
		for sel, s := range p.Info.Selections {
			mark(namedOf(s.Recv()), sel.Pos())
		}
		for _, imp := range p.Types.Imports() {
			if std[imp] || u.localType(imp.Path()) {
				continue
			}
			std[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
					callAll(tn.Type())
				}
			}
		}
	}

	var out []Diag
	for _, obj := range cands {
		if used[obj] || implementsCalled(obj, calls) {
			continue
		}
		what := obj.Pkg().Name() + "."
		if fn, ok := obj.(*types.Func); ok && recvNamed(fn) != nil {
			what += recvNamed(fn).Name() + "."
		}
		out = append(out, Diag{
			Pos:   u.Fset.Position(obj.Pos()),
			Check: ReachCheck,
			Msg: fmt.Sprintf("%s%s is on %s's serving path but no served code, cmd/, bench/ or examples/ uses it: "+
				"delete it, move it beside its experiment, or make it test-only", what, obj.Name(), u.Config.ServeRoot),
		})
	}
	return out
}

// isUser reports whether p's uses count: non-test code on the serving
// path, or under cmd/, bench/ or examples/.
func isUser(u *Unit, p *Package, served map[string]bool) bool {
	if p.TestVariant || strings.HasSuffix(p.ImportPath, "_test") {
		return false
	}
	if served[p.ImportPath] {
		return true
	}
	return slices.ContainsFunc([]string{"/cmd", "/bench", "/examples"}, func(dir string) bool {
		return p.ImportPath == u.ModPath+dir || strings.HasPrefix(p.ImportPath, u.ModPath+dir+"/")
	})
}

// implementsCalled reports whether obj is a concrete method that
// implements a method user code calls through an interface.
func implementsCalled(obj types.Object, calls map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || recvNamed(fn) == nil || types.IsInterface(recvNamed(fn).Type()) {
		return false
	}
	t := recvNamed(fn).Type()
	for _, it := range calls[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// recvNamed is the named type declaring method fn, nil for a function.
func recvNamed(fn *types.Func) *types.TypeName {
	if recv := fn.Signature().Recv(); recv != nil {
		return namedOf(recv.Type())
	}
	return nil
}

// namedOf is the declared type name behind t or *t, nil for an unnamed
// type.
func namedOf(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}
